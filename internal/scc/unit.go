package scc

import (
	"math"

	"sccsim/internal/uopcache"
)

// UnitStats aggregates the unit's lifetime activity.
type UnitStats struct {
	Requests         uint64 // compaction requests accepted into the queue
	Rejected         uint64 // requests dropped (queue full or duplicate)
	RejectedDisabled uint64 // requests dropped because the unit is disabled
	Jobs             uint64 // compaction jobs completed
	Committed        uint64 // compacted lines committed to the optimized partition
	Discarded        uint64 // write buffers discarded (below compaction threshold)
	Aborted          uint64 // aborts (self-loop, self-modifying code)
	BusyCycles       uint64 // cycles the unit spent processing micro-ops
	ElimMove         uint64
	ElimFold         uint64
	ElimBranch       uint64
	ElimDead         uint64
	Propagated       uint64
	DataInvariants   uint64
	CtrlInvariants   uint64
}

// Unit is the speculative code compaction unit: the request queue plus the
// (single) compaction engine. The pipeline ticks it on the cycles NextEvent
// names; on every other cycle Tick would return nothing and change nothing.
type Unit struct {
	Cfg   Config
	Env   Env
	Stats UnitStats

	queue     []uint64
	inQueue   map[uint64]bool
	busyUntil uint64
	pending   Result
	pendingOK bool

	journal   *Journal
	jobSeq    uint64 // monotone job id; next dispatch mints jobSeq+1
	pendingID uint64 // job id of the in-flight job
	pendingPC uint64 // entry PC of the in-flight job
}

// SetJournal attaches (or detaches, with nil) the SCC journal. The journal
// is a pure tap: it observes requests and job outcomes but never alters
// them.
func (u *Unit) SetJournal(j *Journal) { u.journal = j }

// NewUnit builds the unit.
func NewUnit(cfg Config, env Env) *Unit {
	return &Unit{Cfg: cfg, Env: env, inQueue: make(map[uint64]bool)}
}

// Enabled reports whether any speculative transformation is switched on.
func (u *Unit) Enabled() bool {
	return u.Cfg.EnableMoveElim || u.Cfg.EnableFoldProp ||
		u.Cfg.EnableBranchFold || u.Cfg.EnableControlInv
}

// Request enqueues a compaction request for the hot line entered at pc at
// cycle now. It reports whether the request was accepted (§III: the request
// queue is sized by the fetch width; duplicates and overflow are dropped).
func (u *Unit) Request(now, pc uint64) bool {
	if !u.Enabled() {
		u.Stats.RejectedDisabled++
		u.journalRequest(now, pc, ReqRejectedDisabled)
		return false
	}
	if u.inQueue[pc] {
		u.Stats.Rejected++
		u.journalRequest(now, pc, ReqRejectedDuplicate)
		return false
	}
	if len(u.queue) >= u.Cfg.RequestQueueDepth {
		u.Stats.Rejected++
		u.journalRequest(now, pc, ReqRejectedQueueFull)
		return false
	}
	u.queue = append(u.queue, pc)
	u.inQueue[pc] = true
	u.Stats.Requests++
	u.journalRequest(now, pc, ReqAccepted)
	return true
}

func (u *Unit) journalRequest(now, pc uint64, outcome RequestOutcome) {
	if u.journal == nil || u.journal.Request == nil {
		return
	}
	u.journal.Request(RequestEvent{
		Cycle: now, PC: pc, Outcome: outcome, QueueLen: len(u.queue),
	})
}

// QueueLen returns the number of waiting requests.
func (u *Unit) QueueLen() int { return len(u.queue) }

// NextEvent returns the first cycle at which Tick has work: the in-flight
// job's completion cycle, 0 when a queued request waits to be dispatched,
// or math.MaxUint64 when the unit is idle until the next Request.
func (u *Unit) NextEvent() uint64 {
	switch {
	case u.pendingOK:
		return u.busyUntil
	case len(u.queue) > 0:
		return 0
	}
	return math.MaxUint64
}

// Tick advances the unit by one cycle. When a job completes it returns the
// finished Result (with Line non-nil if a compacted stream should be
// committed); otherwise ok is false.
func (u *Unit) Tick(now uint64) (Result, bool) {
	if u.pendingOK {
		if now < u.busyUntil {
			return Result{}, false
		}
		// Job complete this cycle.
		res := u.pending
		u.pendingOK = false
		u.Stats.Jobs++
		u.Stats.BusyCycles += uint64(res.Cycles)
		u.Stats.ElimMove += uint64(res.ElimMove)
		u.Stats.ElimFold += uint64(res.ElimFold)
		u.Stats.ElimBranch += uint64(res.ElimBranch)
		u.Stats.ElimDead += uint64(res.ElimDead)
		u.Stats.Propagated += uint64(res.Propagated)
		u.Stats.DataInvariants += uint64(res.DataInvUsed)
		u.Stats.CtrlInvariants += uint64(res.CtrlInvUsed)
		switch {
		case res.Line != nil:
			u.Stats.Committed++
		case res.Abort == AbortNoShrinkage || res.Abort == AbortWriteBuffer:
			u.Stats.Discarded++
		default:
			u.Stats.Aborted++
		}
		if res.Line != nil {
			// Stamp the planting job on the line so downstream Select and
			// squash events attribute back to this job.
			res.Line.Meta.JobID = u.pendingID
		}
		if u.journal != nil && u.journal.Job != nil {
			u.journal.Job(JobEvent{
				Cycle: now, JobID: u.pendingID, PC: u.pendingPC,
				Cycles: res.Cycles, Committed: res.Line != nil, Abort: res.Abort,
				OrigSlots: res.OrigSlots, OutSlots: res.OutSlots,
				OrigUops: res.OrigUops,
				DataInv:  res.DataInvUsed, CtrlInv: res.CtrlInvUsed,
				Remarks: res.Remarks,
			})
		}
		return res, true
	}
	if len(u.queue) == 0 {
		return Result{}, false
	}
	// Dispatch the next request (the result is computed eagerly; the
	// busy-until point models the one-uop-per-cycle walk latency).
	pc := u.queue[0]
	u.queue = u.queue[1:]
	delete(u.inQueue, pc)
	if u.journal != nil && u.journal.Job != nil {
		u.pending = CompactWithRemarks(u.Cfg, u.Env, pc)
	} else {
		u.pending = Compact(u.Cfg, u.Env, pc)
	}
	u.pendingOK = true
	u.jobSeq++
	u.pendingID = u.jobSeq
	u.pendingPC = pc
	cyc := u.pending.Cycles
	if cyc < 1 {
		cyc = 1
	}
	u.busyUntil = now + uint64(cyc)
	return Result{}, false
}

// InitialConfidence seeds a committed line's counters: the paper uses
// aggressive 4-bit counters per invariant, initialized from the predictor
// confidence observed at optimization time (already stored by Compact).
// This helper clamps them into range for safety.
func InitialConfidence(meta *uopcache.CompactMeta) {
	clamp := func(c int) int {
		if c < 0 {
			return 0
		}
		if c > uopcache.ConfMax {
			return uopcache.ConfMax
		}
		return c
	}
	for i := range meta.DataInv {
		meta.DataInv[i].Conf = clamp(meta.DataInv[i].Conf)
	}
	for i := range meta.CtrlInv {
		meta.CtrlInv[i].Conf = clamp(meta.CtrlInv[i].Conf)
	}
}
