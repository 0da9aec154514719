package obs

import (
	"sccsim/internal/pipeline"
	"sccsim/internal/stats"
)

// Interval is one sampling window of a run: the raw counter deltas
// accumulated since the previous sample plus the derived per-interval
// metrics the paper's figures report as whole-run aggregates. A series
// of Intervals makes the phasic behaviour of compaction visible —
// coverage ramping as uop-cache lines get hot, squash storms around
// phase changes — which end-of-run averages hide.
type Interval struct {
	Index    int    `json:"index"`
	EndCycle uint64 `json:"end_cycle"` // cumulative cycles at sample time
	EndUops  uint64 `json:"end_uops"`  // cumulative committed uops at sample time

	// Raw deltas over the window.
	Cycles     uint64 `json:"cycles"`
	Committed  uint64 `json:"committed"`
	Eliminated uint64 `json:"eliminated"`
	ElimMove   uint64 `json:"elim_move"`
	ElimFold   uint64 `json:"elim_fold"`
	ElimBranch uint64 `json:"elim_branch"`
	ElimDead   uint64 `json:"elim_dead"`

	FetchDecodeSlots uint64 `json:"fetch_decode_slots"`
	FetchUnoptSlots  uint64 `json:"fetch_unopt_slots"`
	FetchOptSlots    uint64 `json:"fetch_opt_slots"`

	Violations   uint64 `json:"invariant_violations"`
	SquashedUops uint64 `json:"squashed_uops"`
	Mispredicts  uint64 `json:"branch_mispredicts"`

	// Per-window top-down CPI stack (cycle deltas). The nine slots sum
	// exactly to Cycles in every interval — the pipeline attributes each
	// cycle to one slot before the sample hook fires.
	CPIRetiring          uint64 `json:"cpi_retiring"`
	CPIBadSpecMispredict uint64 `json:"cpi_badspec_mispredict"`
	CPIBadSpecSquash     uint64 `json:"cpi_badspec_squash"`
	CPIBackendROB        uint64 `json:"cpi_backend_rob"`
	CPIBackendIQ         uint64 `json:"cpi_backend_iq"`
	CPIBackendLSQ        uint64 `json:"cpi_backend_lsq"`
	CPIBackendExec       uint64 `json:"cpi_backend_exec"`
	CPIFrontendICache    uint64 `json:"cpi_frontend_icache"`
	CPIFrontendUop       uint64 `json:"cpi_frontend_uop"`

	// Derived per-interval metrics (zero-guarded).
	IPC             float64 `json:"ipc"`
	UopReduction    float64 `json:"uop_reduction"`
	OptShare        float64 `json:"opt_share"` // optimized-partition fraction of fetched slots
	SquashesPerKuop float64 `json:"squashes_per_kuop"`
	MPKI            float64 `json:"mpki"`
}

// CPITotal sums the interval's CPI-stack slots; the accounting invariant
// guarantees it equals the interval's Cycles delta.
func (iv *Interval) CPITotal() uint64 {
	return iv.CPIRetiring + iv.CPIBadSpecMispredict + iv.CPIBadSpecSquash +
		iv.CPIBackendROB + iv.CPIBackendIQ + iv.CPIBackendLSQ + iv.CPIBackendExec +
		iv.CPIFrontendICache + iv.CPIFrontendUop
}

// Sampler accumulates a run's interval series from the pipeline's sample
// hook; the zero Sampler is ready to use. It is not safe for concurrent
// use, matching the hook contract: the pipeline calls it from the
// (single-threaded) simulation loop. A window closed every N committed
// micro-ops can overshoot by up to one commit group; deltas stay exact
// because they are counter differences, not rate estimates.
type Sampler struct {
	prev      pipeline.Stats
	intervals []Interval
}

// Observe closes one sample window at the run's current stats and
// returns it.
func (s *Sampler) Observe(cur pipeline.Stats) Interval {
	p := &s.prev
	iv := Interval{
		Index:    len(s.intervals),
		EndCycle: cur.Cycles,
		EndUops:  cur.CommittedUops,

		Cycles:     cur.Cycles - p.Cycles,
		Committed:  cur.CommittedUops - p.CommittedUops,
		Eliminated: cur.EliminatedUops() - p.EliminatedUops(),
		ElimMove:   cur.ElimMove - p.ElimMove,
		ElimFold:   cur.ElimFold - p.ElimFold,
		ElimBranch: cur.ElimBranch - p.ElimBranch,
		ElimDead:   cur.ElimDead - p.ElimDead,

		CPIRetiring:          cur.CPIRetiring - p.CPIRetiring,
		CPIBadSpecMispredict: cur.CPIBadSpecMispredict - p.CPIBadSpecMispredict,
		CPIBadSpecSquash:     cur.CPIBadSpecSquash - p.CPIBadSpecSquash,
		CPIBackendROB:        cur.CPIBackendROB - p.CPIBackendROB,
		CPIBackendIQ:         cur.CPIBackendIQ - p.CPIBackendIQ,
		CPIBackendLSQ:        cur.CPIBackendLSQ - p.CPIBackendLSQ,
		CPIBackendExec:       cur.CPIBackendExec - p.CPIBackendExec,
		CPIFrontendICache:    cur.CPIFrontendICache - p.CPIFrontendICache,
		CPIFrontendUop:       cur.CPIFrontendUop - p.CPIFrontendUop,

		FetchDecodeSlots: cur.UopsFromDecode - p.UopsFromDecode,
		FetchUnoptSlots:  cur.UopsFromUnopt - p.UopsFromUnopt,
		FetchOptSlots:    cur.UopsFromOpt - p.UopsFromOpt,

		Violations:   cur.InvariantViolations - p.InvariantViolations,
		SquashedUops: cur.SquashedUops - p.SquashedUops,
		Mispredicts:  cur.BranchMispredicts - p.BranchMispredicts,
	}
	iv.IPC = stats.Ratio(float64(iv.Committed), float64(iv.Cycles))
	iv.UopReduction = stats.Ratio(float64(iv.Eliminated), float64(iv.Committed+iv.Eliminated))
	fetched := iv.FetchDecodeSlots + iv.FetchUnoptSlots + iv.FetchOptSlots
	iv.OptShare = stats.Ratio(float64(iv.FetchOptSlots), float64(fetched))
	iv.SquashesPerKuop = stats.Ratio(1000*float64(iv.Violations), float64(iv.Committed))
	iv.MPKI = stats.Ratio(1000*float64(iv.Mispredicts), float64(iv.Committed))
	s.intervals = append(s.intervals, iv)
	s.prev = cur
	return iv
}

// Finalize closes the tail interval against the run's final stats (work
// committed after the last full window) and returns the complete series.
// Passing nil (a failed run) returns whatever was collected.
func (s *Sampler) Finalize(final *pipeline.Stats) []Interval {
	if final != nil && final.CommittedUops > s.prev.CommittedUops {
		s.Observe(*final)
	}
	return s.intervals
}
