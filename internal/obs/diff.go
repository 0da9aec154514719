package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Diffing compares two sweep indexes (BENCH_*.json files or manifest
// directories) entry-by-entry and flags metric regressions — the CI gate
// that keeps the perf trajectory monotone across PRs.
//
// Entries are matched by (experiment, workload, max_uops, ordinal) where
// ordinal is the entry's position within that group. Config hashes are
// deliberately NOT part of the key: a simulator-version bump changes
// every hash even when simulation semantics (and thus the comparable
// metrics) are unchanged. Ordinal matching is stable because experiment
// sweeps enumerate their configuration levels in deterministic order.

// DiffThresholds sets the tolerated movement per metric before an entry
// counts as a regression. IPC and energy use relative change (a 1%-IPC
// workload and a 2-IPC workload regress at the same fraction);
// uop-reduction is already a fraction of dynamic uops, so it uses an
// absolute delta (relative change on a 0-reduction baseline is
// undefined).
type DiffThresholds struct {
	// IPCDrop is the max tolerated relative IPC decrease (0.05 = -5%).
	IPCDrop float64
	// ElimDrop is the max tolerated absolute decrease in
	// dynamic_uop_reduction (0.02 = two points of coverage).
	ElimDrop float64
	// EnergyRise is the max tolerated relative energy_j increase.
	EnergyRise float64
}

// DefaultThresholds are the CI gate's settings: loose enough to absorb
// modelling noise from intentional fidelity changes, tight enough to
// catch a real performance bug.
func DefaultThresholds() DiffThresholds {
	return DiffThresholds{IPCDrop: 0.05, ElimDrop: 0.02, EnergyRise: 0.05}
}

// MetricDelta is one metric's movement between base and new.
type MetricDelta struct {
	Name      string  `json:"name"`
	Base      float64 `json:"base"`
	New       float64 `json:"new"`
	Delta     float64 `json:"delta"` // new - base
	Rel       float64 `json:"rel"`   // delta / |base|; 0 when base is 0
	Regressed bool    `json:"regressed"`
}

// EntryDiff is the comparison of one matched index entry.
type EntryDiff struct {
	Key       string        `json:"key"`
	Deltas    []MetricDelta `json:"deltas"`
	Regressed bool          `json:"regressed"`
}

// DiffReport is the full comparison of two indexes.
type DiffReport struct {
	BaseVersion string      `json:"base_version"`
	NewVersion  string      `json:"new_version"`
	Entries     []EntryDiff `json:"entries"`
	OnlyBase    []string    `json:"only_base,omitempty"` // keys missing from new
	OnlyNew     []string    `json:"only_new,omitempty"`  // keys missing from base
	Regressions int         `json:"regressions"`
}

// LoadIndex reads an index from path, which may be an index JSON file
// (BENCH_*.json, index.json) or a manifest directory containing
// index.json.
func LoadIndex(path string) (*Index, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if fi.IsDir() {
		path = filepath.Join(path, "index.json")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ix Index
	if err := json.Unmarshal(data, &ix); err != nil {
		return nil, fmt.Errorf("obs: %s: %w", path, err)
	}
	return &ix, nil
}

// diffKey builds the match key for an entry given its ordinal within the
// (experiment, workload, max_uops) group.
func diffKey(e *IndexEntry, ordinal int) string {
	return fmt.Sprintf("%s/%s/mu%d#%d", e.Experiment, e.Workload, e.MaxUops, ordinal)
}

// KeyEntries indexes entries by their diff match key, assigning ordinals
// in slice order (the sweep's deterministic enumeration order). The keys
// are the same strings DiffIndexes emits in EntryDiff.Key /
// OnlyBase/OnlyNew, which lets callers (sccdiff -explain) map a report
// entry back to the index entries — and manifests — behind it.
func KeyEntries(ix *Index) map[string]*IndexEntry { return keyEntries(ix) }

// keyEntries indexes entries by diffKey, assigning ordinals in slice
// order (the sweep's deterministic enumeration order).
func keyEntries(ix *Index) map[string]*IndexEntry {
	seen := make(map[string]int)
	out := make(map[string]*IndexEntry, len(ix.Entries))
	for i := range ix.Entries {
		e := &ix.Entries[i]
		group := fmt.Sprintf("%s/%s/mu%d", e.Experiment, e.Workload, e.MaxUops)
		out[diffKey(e, seen[group])] = e
		seen[group]++
	}
	return out
}

func rel(delta, base float64) float64 {
	if base == 0 {
		return 0
	}
	return delta / math.Abs(base)
}

// DiffIndexes compares new against base under the given thresholds.
func DiffIndexes(base, cur *Index, th DiffThresholds) *DiffReport {
	rep := &DiffReport{BaseVersion: base.SimVersion, NewVersion: cur.SimVersion}
	bk, ck := keyEntries(base), keyEntries(cur)

	keys := make([]string, 0, len(bk))
	// order-independent: collects keys, sorted below
	for k := range bk {
		if _, ok := ck[k]; ok {
			keys = append(keys, k)
		} else {
			rep.OnlyBase = append(rep.OnlyBase, k)
		}
	}
	// order-independent: collects keys, sorted below
	for k := range ck {
		if _, ok := bk[k]; !ok {
			rep.OnlyNew = append(rep.OnlyNew, k)
		}
	}
	sort.Strings(keys)
	sort.Strings(rep.OnlyBase)
	sort.Strings(rep.OnlyNew)

	for _, k := range keys {
		b, c := bk[k], ck[k]
		ed := EntryDiff{Key: k}

		ipc := MetricDelta{Name: "ipc", Base: b.IPC, New: c.IPC, Delta: c.IPC - b.IPC}
		ipc.Rel = rel(ipc.Delta, ipc.Base)
		ipc.Regressed = ipc.Rel < -th.IPCDrop

		elim := MetricDelta{Name: "dynamic_uop_reduction",
			Base: b.DynamicUopReduction, New: c.DynamicUopReduction,
			Delta: c.DynamicUopReduction - b.DynamicUopReduction}
		elim.Rel = rel(elim.Delta, elim.Base)
		elim.Regressed = elim.Delta < -th.ElimDrop

		en := MetricDelta{Name: "energy_j", Base: b.EnergyJ, New: c.EnergyJ, Delta: c.EnergyJ - b.EnergyJ}
		en.Rel = rel(en.Delta, en.Base)
		en.Regressed = en.Rel > th.EnergyRise

		ed.Deltas = []MetricDelta{ipc, elim, en}
		ed.Regressed = ipc.Regressed || elim.Regressed || en.Regressed
		if ed.Regressed {
			rep.Regressions++
		}
		rep.Entries = append(rep.Entries, ed)
	}
	return rep
}

// WriteMarkdown renders the report as a GitHub-flavoured Markdown table —
// the $GITHUB_STEP_SUMMARY format the CI workflow publishes. Every matched
// entry is listed (regressions bolded and flagged), so the summary shows
// improvements alongside regressions.
func (r *DiffReport) WriteMarkdown(w io.Writer) {
	fmt.Fprintf(w, "## sccdiff: `%s` vs `%s`\n\n", r.BaseVersion, r.NewVersion)
	fmt.Fprintf(w, "%d matched entries, **%d regression(s)**\n\n", len(r.Entries), r.Regressions)
	for _, k := range r.OnlyBase {
		fmt.Fprintf(w, "- only in base: `%s`\n", k)
	}
	for _, k := range r.OnlyNew {
		fmt.Fprintf(w, "- only in new: `%s`\n", k)
	}
	if len(r.OnlyBase)+len(r.OnlyNew) > 0 {
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "| entry | metric | base | new | delta | rel | status |")
	fmt.Fprintln(w, "|---|---|---:|---:|---:|---:|---|")
	for _, e := range r.Entries {
		for _, d := range e.Deltas {
			status := "ok"
			if d.Regressed {
				status = "**REGRESSED**"
			} else if d.Delta > 0 && d.Name != "energy_j" || d.Delta < 0 && d.Name == "energy_j" {
				status = "improved"
			}
			fmt.Fprintf(w, "| `%s` | %s | %.6g | %.6g | %+.4g | %+.2f%% | %s |\n",
				e.Key, d.Name, d.Base, d.New, d.Delta, 100*d.Rel, status)
		}
	}
}

// Write renders the report as a human-readable table. With verbose false
// only regressed entries (and unmatched keys) are listed; the summary
// line always prints.
func (r *DiffReport) Write(w io.Writer, verbose bool) {
	fmt.Fprintf(w, "sccdiff: base %s vs new %s — %d matched, %d regression(s)\n",
		r.BaseVersion, r.NewVersion, len(r.Entries), r.Regressions)
	for _, k := range r.OnlyBase {
		fmt.Fprintf(w, "  only in base: %s\n", k)
	}
	for _, k := range r.OnlyNew {
		fmt.Fprintf(w, "  only in new:  %s\n", k)
	}
	for _, e := range r.Entries {
		if !e.Regressed && !verbose {
			continue
		}
		mark := "ok"
		if e.Regressed {
			mark = "REGRESSED"
		}
		fmt.Fprintf(w, "  %-40s %s\n", e.Key, mark)
		for _, d := range e.Deltas {
			flag := ""
			if d.Regressed {
				flag = "  <-- regression"
			}
			fmt.Fprintf(w, "    %-22s %12.6g -> %12.6g  (%+.4g, %+.2f%%)%s\n",
				d.Name, d.Base, d.New, d.Delta, 100*d.Rel, flag)
		}
	}
}
