package obs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"sccsim/internal/pipeline"
	"sccsim/internal/power"
	"sccsim/internal/scc"
	"sccsim/internal/stats"
)

// Manifest is the machine-readable artifact of one (workload,
// configuration) run: everything a result cache, a BENCH trajectory, or
// a downstream service needs to reuse the measurement without re-running
// it. All fields except GitRevision are deterministic for a given
// simulator version, so manifests are byte-stable across runs and
// across -parallel settings once Normalize is applied.
type Manifest struct {
	Schema      int    `json:"schema"`
	SimVersion  string `json:"sim_version"`
	GitRevision string `json:"git_revision,omitempty"`

	Workload string `json:"workload"`
	// ConfigHash content-addresses the run: SHA-256 over (SimVersion,
	// Workload, Config) — Config includes MaxUops, so the hash is the
	// result-cache key the ROADMAP asks for, invalidated by version bumps.
	ConfigHash string          `json:"config_hash"`
	Config     pipeline.Config `json:"config"`

	Stats   *pipeline.Stats   `json:"stats"`
	Derived Derived           `json:"derived"`
	Energy  power.Report      `json:"energy"`
	Mem     power.CacheCounts `json:"cache_counts"`
	Unit    *scc.UnitStats    `json:"scc_unit,omitempty"`

	// Samples is the interval series (present when sampling was enabled).
	Samples []Interval `json:"samples,omitempty"`

	// SCCReport is the compact SCC-journal summary (present when the run
	// collected an opt-report). It is observational metadata: Normalize
	// strips it so journal-on and journal-off manifests of the same run
	// compare byte-identical.
	SCCReport *SCCReportSummary `json:"scc_report,omitempty"`
}

// Derived holds the headline metrics recomputed from Stats for direct
// consumption (dashboards, BENCH files) without re-deriving them.
type Derived struct {
	IPC                 float64 `json:"ipc"`
	DynamicUopReduction float64 `json:"dynamic_uop_reduction"`
	BranchMPKI          float64 `json:"branch_mpki"`
	SquashOverhead      float64 `json:"squash_overhead"`
	EnergyJ             float64 `json:"energy_j"`
	// CPIStack is the whole-run top-down cycle attribution.
	CPIStack CPIStack `json:"cpi_stack"`
	// Eliminated breaks the dynamically eliminated micro-ops down by the
	// SCC optimization that removed them (Section 6's attribution).
	Eliminated ElimBreakdown `json:"eliminated"`
}

// CPIStack is the top-down cycle attribution as fractions of total
// cycles; the slots sum to 1 for any run that executed at least a cycle.
type CPIStack struct {
	Retiring          float64 `json:"retiring"`
	BadSpecMispredict float64 `json:"badspec_mispredict"`
	BadSpecSquash     float64 `json:"badspec_squash"`
	BackendROB        float64 `json:"backend_rob"`
	BackendIQ         float64 `json:"backend_iq"`
	BackendLSQ        float64 `json:"backend_lsq"`
	BackendExec       float64 `json:"backend_exec"`
	FrontendICache    float64 `json:"frontend_icache"`
	FrontendUop       float64 `json:"frontend_uop"`
}

// NewCPIStack derives the fractional stack from a run's final counters.
func NewCPIStack(st *pipeline.Stats) CPIStack {
	c := float64(st.Cycles)
	frac := func(n uint64) float64 { return stats.Ratio(float64(n), c) }
	return CPIStack{
		Retiring:          frac(st.CPIRetiring),
		BadSpecMispredict: frac(st.CPIBadSpecMispredict),
		BadSpecSquash:     frac(st.CPIBadSpecSquash),
		BackendROB:        frac(st.CPIBackendROB),
		BackendIQ:         frac(st.CPIBackendIQ),
		BackendLSQ:        frac(st.CPIBackendLSQ),
		BackendExec:       frac(st.CPIBackendExec),
		FrontendICache:    frac(st.CPIFrontendICache),
		FrontendUop:       frac(st.CPIFrontendUop),
	}
}

// ElimBreakdown is the per-optimization-kind census of eliminated
// micro-ops (plus propagation, which rewrites rather than removes).
type ElimBreakdown struct {
	Move       uint64 `json:"move"`
	Fold       uint64 `json:"fold"`
	Branch     uint64 `json:"branch"`
	Dead       uint64 `json:"dead"`
	Propagated uint64 `json:"propagated"`
}

// NewManifest assembles the manifest for one finished run. The config
// must be the effective one (work budget applied), i.e. Machine.Cfg.
func NewManifest(workload string, cfg pipeline.Config, st *pipeline.Stats,
	energy power.Report, mem power.CacheCounts, unit *scc.UnitStats,
	samples []Interval) *Manifest {
	m := &Manifest{
		Schema:      SchemaVersion,
		SimVersion:  Version,
		GitRevision: gitRevision(),
		Workload:    workload,
		ConfigHash:  ConfigHash(workload, cfg),
		Config:      cfg,
		Stats:       st,
		Energy:      energy,
		Mem:         mem,
		Unit:        unit,
		Samples:     samples,
	}
	if st != nil {
		m.Derived = Derived{
			IPC:                 st.IPC(),
			DynamicUopReduction: st.DynamicUopReduction(),
			BranchMPKI:          st.BranchMPKI(),
			SquashOverhead:      st.SquashOverhead(),
			EnergyJ:             energy.Total(),
			CPIStack:            NewCPIStack(st),
			Eliminated: ElimBreakdown{
				Move:       st.ElimMove,
				Fold:       st.ElimFold,
				Branch:     st.ElimBranch,
				Dead:       st.ElimDead,
				Propagated: st.Propagated,
			},
		}
	}
	return m
}

// ConfigHash content-addresses a (workload, configuration) pair under the
// current simulator version: equal hashes imply byte-identical normalized
// manifests, which is what makes manifests safe to use as result-
// cache keys and idempotent to overwrite.
func ConfigHash(workload string, cfg pipeline.Config) string {
	key, err := json.Marshal(struct {
		SimVersion string
		Workload   string
		Config     pipeline.Config
	}{Version, workload, cfg})
	if err != nil {
		// Config is plain data; Marshal cannot fail on it. Keep the
		// signature hash-like anyway.
		return "unhashable"
	}
	sum := sha256.Sum256(key)
	return hex.EncodeToString(sum[:])
}

// Normalize strips the nondeterministic and observational fields (VCS
// stamp, journal summary) so two manifests of the same run compare
// byte-identical regardless of which observers were attached. It returns
// the manifest for chaining.
func (m *Manifest) Normalize() *Manifest {
	m.GitRevision = ""
	m.SCCReport = nil
	return m
}

// Encode writes the manifest as indented JSON and verifies it round-trips
// through encoding/json (decode + re-encode reproduces the same bytes) —
// the smoke test that guards the schema against unserializable or lossy
// fields creeping in.
func (m *Manifest) Encode(w io.Writer) error {
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encode manifest: %w", err)
	}
	var back Manifest
	if err := json.Unmarshal(out, &back); err != nil {
		return fmt.Errorf("obs: manifest does not round-trip: %w", err)
	}
	out2, err := json.MarshalIndent(&back, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: re-encode manifest: %w", err)
	}
	if !bytes.Equal(out, out2) {
		return fmt.Errorf("obs: manifest round-trip is lossy (schema %d)", m.Schema)
	}
	_, err = w.Write(append(out, '\n'))
	return err
}

// WriteFile encodes the manifest to path (0644, truncating).
func (m *Manifest) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadManifest loads a manifest back from disk (the consumer side of the
// artifact: result caches, BENCH trajectory tooling, sccserve).
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obs: %s: %w", path, err)
	}
	return &m, nil
}
