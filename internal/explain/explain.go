// Package explain is the regression-attribution engine: given two run
// manifests of the same workload it explains *why* the headline metrics
// moved, not just that they did. The diff gate (cmd/sccdiff) compares
// index-level scalars; an Explanation opens the manifests behind them
// and decomposes the movement three ways:
//
//   - CPI-stack delta decomposition: the cycles-per-uop movement is
//     apportioned across the nine top-down slots, exactly — the slot
//     deltas carry integer numerators over a common denominator that
//     sum to the total delta's numerator, mirroring the pipeline's
//     sum==Cycles invariant (TestCPIStackPartitionsCycles) at the
//     diff level.
//   - Opt-report attribution: the per-transform (static fires, dyn-win
//     uops saved, dyn-loss squashes) tallies of the two runs' scc_report
//     summaries are diffed and ranked by how much each transform's
//     profit shifted.
//   - Interval-divergence localization: the first sampling window where
//     the two runs' per-window IPC diverges beyond a noise floor, with
//     the dominant contributing CPI slot named — the "when did it go
//     wrong" to the stack's "where".
//
// Explanations are pure functions of the two manifests: identical input
// pairs produce byte-identical JSON/text/markdown renderings (the
// golden + determinism tests pin this), which is what makes them safe
// to serve from the content-addressed cache (sccserve GET /v1/compare)
// and to consume as a machine-readable tuning signal (ROADMAP #6).
package explain

import (
	"fmt"
	"math"

	"sccsim/internal/obs"
	"sccsim/internal/pipeline"
)

// Noise floor for interval divergence: a window diverges when
// |curIPC - baseIPC| > max(noiseAbs, noiseFrac*|baseIPC|) — 2% relative
// IPC movement, but never less than 0.01 IPC absolute, guarding
// near-zero-IPC windows where any relative threshold would fire on noise.
const (
	noiseFrac = 0.02
	noiseAbs  = 0.01
)

// IncomparableError reports that two manifests cannot be meaningfully
// explained against each other (different workloads, missing stats).
// sccserve maps it to 409 Conflict.
type IncomparableError struct{ Reason string }

func (e *IncomparableError) Error() string { return "explain: incomparable runs: " + e.Reason }

// Movement is one headline metric's base -> cur motion.
type Movement struct {
	Base  float64 `json:"base"`
	Cur   float64 `json:"cur"`
	Delta float64 `json:"delta"` // cur - base
	Rel   float64 `json:"rel"`   // delta / |base|; 0 when base is 0
}

func movement(base, cur float64) Movement {
	m := Movement{Base: base, Cur: cur, Delta: cur - base}
	if base != 0 {
		m.Rel = m.Delta / math.Abs(base)
	}
	return m
}

// SlotDelta is one CPI slot's share of the cycles-per-uop movement.
// Delta is DeltaNum over the stack's common Denom; the integer numerator
// is the exactness witness (float rendering cannot round-trip the
// sum-to-total invariant, the numerators can).
type SlotDelta struct {
	Slot       string  `json:"slot"`
	BaseCycles uint64  `json:"base_cycles"`
	CurCycles  uint64  `json:"cur_cycles"`
	BaseCPU    float64 `json:"base_cpu"`
	CurCPU     float64 `json:"cur_cpu"`
	Delta      float64 `json:"delta_cpu"`
	DeltaNum   int64   `json:"delta_num"`
	// Share is this slot's signed fraction of the total movement
	// (DeltaNum / total DeltaNum); 0 when the total delta is 0.
	Share float64 `json:"share"`
}

// StackDelta decomposes the total cycles-per-uop delta across the nine
// top-down slots. The invariant mirrored from the pipeline's per-cycle
// attribution: sum over Slots of DeltaNum == DeltaNum, and
// DeltaNum == curCycles*baseCommitted - baseCycles*curCommitted exactly
// (all integer arithmetic; Denom = baseCommitted*curCommitted).
type StackDelta struct {
	BaseCPU  float64     `json:"base_cpu"`
	CurCPU   float64     `json:"cur_cpu"`
	Delta    float64     `json:"delta_cpu"`
	DeltaNum int64       `json:"delta_num"`
	Denom    uint64      `json:"denom"`
	Dominant string      `json:"dominant_slot"` // largest |DeltaNum|; "none" when all zero
	Slots    []SlotDelta `json:"slots"`
}

// TransformDelta is one transform kind's profit movement between the two
// runs' opt-report summaries.
type TransformDelta struct {
	Kind       string `json:"kind"`
	StaticBase uint64 `json:"static_base"`
	StaticCur  uint64 `json:"static_cur"`
	WinsBase   uint64 `json:"dyn_wins_base"` // dynamic uops saved
	WinsCur    uint64 `json:"dyn_wins_cur"`
	LossesBase uint64 `json:"dyn_losses_base"` // squash-attributed losses
	LossesCur  uint64 `json:"dyn_losses_cur"`
	// Shift is the profit movement, (Δ dyn-wins) − (Δ dyn-losses):
	// negative means this transform got less profitable (or more
	// squash-prone). Transforms are ranked by |Shift| descending.
	Shift int64 `json:"shift"`
}

// Divergence localizes the first sampling window where the two runs'
// per-window IPC diverged beyond the noise floor.
type Divergence struct {
	Window        int     `json:"window"`  // index of the first divergent window
	Windows       int     `json:"windows"` // windows compared (min of the two series)
	EndUops       uint64  `json:"end_uops"`
	BaseIPC       float64 `json:"base_ipc"`
	CurIPC        float64 `json:"cur_ipc"`
	Delta         float64 `json:"delta"`
	NoiseFloor    float64 `json:"noise_floor"`
	Dominant      string  `json:"dominant_slot"`
	DominantDelta float64 `json:"dominant_delta_cpu"`
}

// Explanation is the full attribution of one base -> cur movement. It is
// deterministic: the same manifest pair always produces the same value
// (and Encode the same bytes), regardless of which observers were
// attached when the manifests were produced.
type Explanation struct {
	SimVersion string `json:"sim_version"` // the explaining engine's version
	Workload   string `json:"workload"`
	BaseHash   string `json:"base_hash"`
	CurHash    string `json:"cur_hash"`
	// Key labels the entry when the explanation came from an index diff
	// (the sccdiff match key); empty for direct manifest pairs.
	Key string `json:"key,omitempty"`

	IPC          Movement `json:"ipc"`
	UopReduction Movement `json:"dynamic_uop_reduction"`
	EnergyJ      Movement `json:"energy_j"`
	// SquashPenaltyCycles is present when both sides carry an scc_report
	// summary (journal-enabled runs).
	SquashPenaltyCycles *Movement `json:"squash_penalty_cycles,omitempty"`

	CPIStack   *StackDelta      `json:"cpi_stack_delta,omitempty"`
	Transforms []TransformDelta `json:"transforms,omitempty"`
	Divergence *Divergence      `json:"divergence,omitempty"`

	// Notes records, deterministically, every analysis the input pair
	// could not support (missing scc_report, no samples, ...).
	Notes []string `json:"notes,omitempty"`
}

// slotNames is the fixed CPI slot order, matching the manifest's
// cpi_stack field order.
var slotNames = [9]string{
	"retiring", "badspec_mispredict", "badspec_squash",
	"backend_rob", "backend_iq", "backend_lsq", "backend_exec",
	"frontend_icache", "frontend_uop",
}

// slotCycles extracts the nine CPI slot counters in slotNames order.
func slotCycles(st *pipeline.Stats) [9]uint64 {
	return [9]uint64{
		st.CPIRetiring, st.CPIBadSpecMispredict, st.CPIBadSpecSquash,
		st.CPIBackendROB, st.CPIBackendIQ, st.CPIBackendLSQ, st.CPIBackendExec,
		st.CPIFrontendICache, st.CPIFrontendUop,
	}
}

// intervalSlotCycles extracts one sampling window's CPI slot deltas in
// slotNames order.
func intervalSlotCycles(iv *obs.Interval) [9]uint64 {
	return [9]uint64{
		iv.CPIRetiring, iv.CPIBadSpecMispredict, iv.CPIBadSpecSquash,
		iv.CPIBackendROB, iv.CPIBackendIQ, iv.CPIBackendLSQ, iv.CPIBackendExec,
		iv.CPIFrontendICache, iv.CPIFrontendUop,
	}
}

// Explain builds the attribution for a base -> cur manifest pair. It
// returns *IncomparableError when the two runs cannot be compared
// (different workloads, missing stats); every softer degradation (no
// scc_report, no samples) is recorded in Notes instead.
func Explain(base, cur *obs.Manifest) (*Explanation, error) {
	if base == nil || cur == nil {
		return nil, &IncomparableError{Reason: "nil manifest"}
	}
	if base.Stats == nil || cur.Stats == nil {
		return nil, &IncomparableError{Reason: "manifest carries no stats"}
	}
	if base.Workload != cur.Workload {
		return nil, &IncomparableError{Reason: fmt.Sprintf(
			"workloads differ (base %q, cur %q)", base.Workload, cur.Workload)}
	}

	ex := &Explanation{
		SimVersion: obs.Version,
		Workload:   base.Workload,
		BaseHash:   base.ConfigHash,
		CurHash:    cur.ConfigHash,

		IPC:          movement(base.Derived.IPC, cur.Derived.IPC),
		UopReduction: movement(base.Derived.DynamicUopReduction, cur.Derived.DynamicUopReduction),
		EnergyJ:      movement(base.Derived.EnergyJ, cur.Derived.EnergyJ),
	}
	if base.SimVersion != cur.SimVersion {
		ex.Notes = append(ex.Notes, fmt.Sprintf(
			"simulator versions differ (base %s, cur %s); metrics may not be comparable",
			base.SimVersion, cur.SimVersion))
	}

	ex.CPIStack = stackDelta(base.Stats, cur.Stats)
	if ex.CPIStack == nil {
		ex.Notes = append(ex.Notes, "cpi-stack decomposition skipped: a side committed zero uops")
	}

	ex.Transforms, ex.SquashPenaltyCycles = transformDeltas(base, cur, &ex.Notes)

	ex.Divergence = divergence(base.Samples, cur.Samples, &ex.Notes)

	return ex, nil
}

// stackDelta computes the exact cycles-per-uop decomposition, or nil
// when either side committed zero uops (no per-uop rate exists).
//
// All slot numerators share Denom = baseCommitted*curCommitted, so
//
//	Δslot_s = curSlot_s/curCommitted − baseSlot_s/baseCommitted
//	        = (curSlot_s*baseCommitted − baseSlot_s*curCommitted) / Denom
//
// and, because the nine slots sum to Cycles on each side, the slot
// numerators sum to the total delta's numerator with no rounding at all.
func stackDelta(base, cur *pipeline.Stats) *StackDelta {
	db, dc := base.CommittedUops, cur.CommittedUops
	if db == 0 || dc == 0 {
		return nil
	}
	denom := db * dc
	fdenom := float64(denom)
	bs, cs := slotCycles(base), slotCycles(cur)
	sd := &StackDelta{
		BaseCPU: float64(base.Cycles) / float64(db),
		CurCPU:  float64(cur.Cycles) / float64(dc),
		Denom:   denom,
	}
	var total int64
	nums := [9]int64{}
	for i := range slotNames {
		n := int64(cs[i]*db) - int64(bs[i]*dc)
		nums[i] = n
		total += n
	}
	sd.DeltaNum = total
	sd.Delta = float64(total) / fdenom
	dominant, dominantAbs := "none", int64(0)
	for i, name := range slotNames {
		n := nums[i]
		s := SlotDelta{
			Slot:       name,
			BaseCycles: bs[i],
			CurCycles:  cs[i],
			BaseCPU:    float64(bs[i]) / float64(db),
			CurCPU:     float64(cs[i]) / float64(dc),
			Delta:      float64(n) / fdenom,
			DeltaNum:   n,
		}
		if total != 0 {
			s.Share = float64(n) / float64(total)
		}
		if abs64(n) > dominantAbs {
			dominant, dominantAbs = name, abs64(n)
		}
		sd.Slots = append(sd.Slots, s)
	}
	sd.Dominant = dominant
	return sd
}

func abs64(n int64) int64 {
	if n < 0 {
		return -n
	}
	return n
}

// transformDeltas diffs the per-transform tallies of the two scc_report
// summaries, ranked by |Shift| descending (ties: larger |static delta|
// first, then kind name). Sides without a summary (journal-off runs, or
// pre-extension manifests without the transforms block) degrade to a
// note.
func transformDeltas(base, cur *obs.Manifest, notes *[]string) ([]TransformDelta, *Movement) {
	missing := ""
	switch {
	case (base.SCCReport == nil || len(base.SCCReport.Transforms) == 0) &&
		(cur.SCCReport == nil || len(cur.SCCReport.Transforms) == 0):
		missing = "both sides"
	case base.SCCReport == nil || len(base.SCCReport.Transforms) == 0:
		missing = "base"
	case cur.SCCReport == nil || len(cur.SCCReport.Transforms) == 0:
		missing = "cur"
	}
	if missing != "" {
		*notes = append(*notes, fmt.Sprintf(
			"opt-report attribution skipped: scc_report transform tallies absent on %s (produce manifests with the journal enabled)", missing))
		return nil, nil
	}

	kind := func(ts []obs.TransformTally, k string) obs.TransformTally {
		for _, t := range ts {
			if t.Kind == k {
				return t
			}
		}
		return obs.TransformTally{Kind: k}
	}
	// Union of kinds, base order first then cur-only kinds — both sides
	// enumerate the same fixed vocabulary in practice, so this is the
	// journal's deterministic kind order.
	var kinds []string
	seen := map[string]bool{}
	for _, t := range base.SCCReport.Transforms {
		if !seen[t.Kind] {
			kinds = append(kinds, t.Kind)
			seen[t.Kind] = true
		}
	}
	for _, t := range cur.SCCReport.Transforms {
		if !seen[t.Kind] {
			kinds = append(kinds, t.Kind)
			seen[t.Kind] = true
		}
	}
	out := make([]TransformDelta, 0, len(kinds))
	for _, k := range kinds {
		b, c := kind(base.SCCReport.Transforms, k), kind(cur.SCCReport.Transforms, k)
		d := TransformDelta{
			Kind:       k,
			StaticBase: b.Static, StaticCur: c.Static,
			WinsBase: b.DynWins, WinsCur: c.DynWins,
			LossesBase: b.DynLosses, LossesCur: c.DynLosses,
		}
		d.Shift = (int64(c.DynWins) - int64(b.DynWins)) - (int64(c.DynLosses) - int64(b.DynLosses))
		out = append(out, d)
	}
	// Stable ranking: |Shift| desc, |static delta| desc, kind asc.
	sortTransforms(out)

	pen := movement(float64(base.SCCReport.SquashCycles), float64(cur.SCCReport.SquashCycles))
	return out, &pen
}

func sortTransforms(ts []TransformDelta) {
	// Insertion sort: the vocabulary is 7 kinds; avoids importing sort
	// for a fixed-size ranking while keeping the comparison explicit.
	less := func(a, b TransformDelta) bool {
		sa, sb := abs64(a.Shift), abs64(b.Shift)
		if sa != sb {
			return sa > sb
		}
		da := abs64(int64(a.StaticCur) - int64(a.StaticBase))
		db := abs64(int64(b.StaticCur) - int64(b.StaticBase))
		if da != db {
			return da > db
		}
		return a.Kind < b.Kind
	}
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && less(ts[j], ts[j-1]); j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// divergence scans the aligned interval series for the first window
// whose IPC delta exceeds the noise floor and names the dominant
// contributing CPI slot of that window.
func divergence(base, cur []obs.Interval, notes *[]string) *Divergence {
	missing := ""
	switch {
	case len(base) == 0 && len(cur) == 0:
		missing = "both sides"
	case len(base) == 0:
		missing = "base"
	case len(cur) == 0:
		missing = "cur"
	}
	if missing != "" {
		*notes = append(*notes, fmt.Sprintf(
			"interval divergence skipped: no interval samples on %s (produce manifests with sampling enabled)", missing))
		return nil
	}
	n := len(base)
	if len(cur) < n {
		n = len(cur)
	}
	if len(base) != len(cur) {
		*notes = append(*notes, fmt.Sprintf(
			"interval series lengths differ (base %d, cur %d); compared the first %d windows",
			len(base), len(cur), n))
	}
	for i := 0; i < n; i++ {
		b, c := &base[i], &cur[i]
		floor := noiseAbs
		if f := noiseFrac * math.Abs(b.IPC); f > floor {
			floor = f
		}
		delta := c.IPC - b.IPC
		if math.Abs(delta) <= floor {
			continue
		}
		d := &Divergence{
			Window:     i,
			Windows:    n,
			EndUops:    c.EndUops,
			BaseIPC:    b.IPC,
			CurIPC:     c.IPC,
			Delta:      delta,
			NoiseFloor: floor,
			Dominant:   "none",
		}
		// Dominant slot: the per-window cycles-per-uop delta with the
		// largest magnitude (committed-work-normalized so windows of
		// different cycle counts compare fairly).
		if b.Committed > 0 && c.Committed > 0 {
			bs, cs := intervalSlotCycles(b), intervalSlotCycles(c)
			best := 0.0
			for k, name := range slotNames {
				sd := float64(cs[k])/float64(c.Committed) - float64(bs[k])/float64(b.Committed)
				if math.Abs(sd) > math.Abs(best) {
					best = sd
					d.Dominant = name
					d.DominantDelta = sd
				}
			}
		}
		return d
	}
	*notes = append(*notes, fmt.Sprintf(
		"no interval diverged beyond the noise floor (%d windows compared)", n))
	return nil
}
