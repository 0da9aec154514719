package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// IndexEntry is one run's headline record in a manifest directory's
// index: enough to plot a perf trajectory (BENCH_*.json) or decide a
// cache hit without opening the per-run manifest.
type IndexEntry struct {
	File                string  `json:"file"`
	Experiment          string  `json:"experiment"`
	Workload            string  `json:"workload"`
	ConfigHash          string  `json:"config_hash"`
	MaxUops             uint64  `json:"max_uops"`
	IPC                 float64 `json:"ipc"`
	DynamicUopReduction float64 `json:"dynamic_uop_reduction"`
	EnergyJ             float64 `json:"energy_j"`
	CPIRetiring         float64 `json:"cpi_retiring"`
	SampleIntervals     int     `json:"sample_intervals"`
}

// Index aggregates the manifests a sweep directory holds (sccbench -json
// writes one as index.json next to the per-run manifests).
type Index struct {
	Schema     int          `json:"schema"`
	SimVersion string       `json:"sim_version"`
	Entries    []IndexEntry `json:"entries"`
}

// NewIndex returns an empty index for the current simulator version.
func NewIndex() *Index {
	return &Index{Schema: SchemaVersion, SimVersion: Version}
}

// Add records one written manifest under the experiment that produced it.
func (ix *Index) Add(file, experiment string, m *Manifest) {
	ix.Entries = append(ix.Entries, IndexEntry{
		File:                file,
		Experiment:          experiment,
		Workload:            m.Workload,
		ConfigHash:          m.ConfigHash,
		MaxUops:             m.Config.MaxUops,
		IPC:                 m.Derived.IPC,
		DynamicUopReduction: m.Derived.DynamicUopReduction,
		EnergyJ:             m.Derived.EnergyJ,
		CPIRetiring:         m.Derived.CPIStack.Retiring,
		SampleIntervals:     len(m.Samples),
	})
}

// Encode writes the index as indented JSON.
func (ix *Index) Encode(w io.Writer) error {
	out, err := json.MarshalIndent(ix, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encode index: %w", err)
	}
	_, err = w.Write(append(out, '\n'))
	return err
}

// WriteFile encodes the index to path (0644, truncating).
func (ix *Index) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ix.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
