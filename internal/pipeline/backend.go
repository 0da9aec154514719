package pipeline

import (
	"math"

	"sccsim/internal/cache"
	"sccsim/internal/isa"
	"sccsim/internal/uop"
)

// cycleCounter tracks occupancy of a structure (IQ, LSQ) whose entries
// leave at known future cycles. It replaces the previous min-heap: pushes
// bump a per-cycle bucket in a power-of-two ring, and drain credits back
// every bucket the clock has passed — O(1) per push and amortized O(1)
// per cycle, with no per-entry heap sifting or boxing.
type cycleCounter struct {
	counts []uint16
	mask   uint64
	last   uint64 // all cycles <= last have been credited back
	occ    int
	stale  int // entries pushed at cycles <= last; credited on next drain
}

func newCycleCounter() *cycleCounter {
	const size = 1 << 9
	return &cycleCounter{counts: make([]uint16, size), mask: size - 1}
}

// Len returns the current occupancy.
func (q *cycleCounter) Len() int { return q.occ }

// push records an entry leaving at cycle c.
func (q *cycleCounter) push(c uint64) {
	q.occ++
	if c <= q.last {
		// Already-passed cycle: the entry is live only until the next
		// drain call (matching the heap's pop-on-next-drain behaviour).
		q.stale++
		return
	}
	if c-q.last > uint64(len(q.counts)) {
		q.grow(c)
	}
	q.counts[c&q.mask]++
}

// drain credits back every entry whose cycle has passed. Once nothing
// is left in the ring it stops walking, so a drain after a long skip
// costs no more than the entries it credits.
func (q *cycleCounter) drain(now uint64) {
	q.occ -= q.stale
	q.stale = 0
	for c := q.last + 1; c <= now && q.occ > 0; c++ {
		i := c & q.mask
		q.occ -= int(q.counts[i])
		q.counts[i] = 0
	}
	if now > q.last {
		q.last = now
	}
}

// nextRelease returns the first drain clock at which Len drops: the last
// drain clock while entries pushed at already-passed cycles wait for the
// next drain, else the first later cycle an entry leaves at, or
// math.MaxUint64 when the counter is empty.
func (q *cycleCounter) nextRelease() uint64 {
	if q.stale > 0 {
		return q.last
	}
	if q.occ == 0 {
		return math.MaxUint64
	}
	c := q.last + 1
	for q.counts[c&q.mask] == 0 {
		c++
	}
	return c
}

// grow widens the ring until cycle c fits the live window (last, last+size].
func (q *cycleCounter) grow(c uint64) {
	old := q.counts
	oldMask := q.mask
	size := len(old)
	for c-q.last > uint64(size) {
		size *= 2
	}
	q.counts = make([]uint16, size)
	q.mask = uint64(size - 1)
	for d := uint64(1); d <= uint64(len(old)); d++ {
		cyc := q.last + d
		if v := old[cyc&oldMask]; v > 0 {
			q.counts[cyc&q.mask] = v
		}
	}
}

// fuPool models n identical functional units as per-cycle issue capacity.
// Units are claimed at the operation's issue cycle, not at dispatch — a
// micro-op whose operands become ready far in the future must not reserve
// a unit in the meantime (real schedulers bind units at wakeup/select).
// The ring records issues per future cycle, tagged by cycle number so
// stale slots self-reset.
//
// The ring starts small and grows adaptively: a slot whose tag is a
// *future* cycle (>= now) is a live reservation that must not be aliased,
// so a collision there doubles the ring until every live cycle maps to a
// distinct slot. Ring size therefore tracks the actual scheduling
// lookahead instead of a worst-case constant, cutting per-machine setup
// from megabytes to kilobytes.
type fuPool struct {
	units     int
	latency   int
	pipelined bool
	count     []uint16
	tag       []uint64
	mask      uint64
}

// fuRingInitBits is the initial scheduling-lookahead window; the ring
// grows on demand when in-flight completion times exceed it.
const fuRingInitBits = 10

func newFUPool(n, latency int, pipelined bool) *fuPool {
	return &fuPool{
		units:     n,
		latency:   latency,
		pipelined: pipelined,
		count:     make([]uint16, 1<<fuRingInitBits),
		tag:       make([]uint64, 1<<fuRingInitBits),
		mask:      1<<fuRingInitBits - 1,
	}
}

// slot returns the issue count for cycle c (c >= now), resetting stale
// entries and growing the ring when a live future reservation collides.
func (p *fuPool) slot(c, now uint64) *uint16 {
	for {
		i := c & p.mask
		if p.tag[i] == c {
			return &p.count[i]
		}
		if p.tag[i] < now || p.count[i] == 0 {
			p.tag[i] = c
			p.count[i] = 0
			return &p.count[i]
		}
		p.grow(now)
	}
}

// grow doubles the ring until every live reservation maps to a distinct
// slot, then carries the live entries over.
func (p *fuPool) grow(now uint64) {
	oldCount, oldTag := p.count, p.tag
	maxLive := now
	for i := range oldTag {
		if oldTag[i] >= now && oldCount[i] > 0 && oldTag[i] > maxLive {
			maxLive = oldTag[i]
		}
	}
	size := len(oldCount)
	for uint64(size) <= maxLive-now+1 {
		size *= 2
	}
	if size == len(oldCount) {
		size *= 2 // collision implies the window no longer fits; force growth
	}
	p.count = make([]uint16, size)
	p.tag = make([]uint64, size)
	p.mask = uint64(size - 1)
	for i := range oldTag {
		if oldTag[i] >= now && oldCount[i] > 0 {
			j := oldTag[i] & p.mask
			p.tag[j] = oldTag[i]
			p.count[j] = oldCount[i]
		}
	}
}

// claim finds the first cycle >= ready with a free unit and claims it.
func (p *fuPool) claim(ready, now uint64) uint64 {
	c := ready
	for {
		s := p.slot(c, now)
		if int(*s) < p.units {
			*s++
			return c
		}
		c++
	}
}

// issue schedules an operation that is ready at `ready`, returning its
// start and completion cycles.
func (p *fuPool) issue(ready, now uint64) (start, complete uint64) {
	start = p.claim(ready, now)
	complete = start + uint64(p.latency)
	if !p.pipelined {
		// Occupy the unit for the full latency (unpipelined divide).
		for c := start + 1; c < complete; c++ {
			s := p.slot(c, now)
			if int(*s) < p.units {
				*s = uint16(p.units)
			}
		}
	}
	return start, complete
}

// issueLatency schedules with a per-op latency (memory ops; ports are
// pipelined).
func (p *fuPool) issueLatency(ready, now uint64, lat int) (start, complete uint64) {
	start = p.claim(ready, now)
	return start, start + uint64(lat)
}

// robEntry tracks one in-flight micro-op until in-order commit.
type robEntry struct {
	complete uint64
	doomed   bool // squash-bound uop from a violated compacted stream
	slot     bool // first uop of its fused slot
	macroEnd bool // last uop of its macro-op
	tr       *UopTrace
}

// dispatch-block reasons, for the CPI stack's backend-bound attribution.
const (
	blockNone = iota
	blockROB
	blockIQ
	blockLSQ
)

// backend is the out-of-order execution engine model.
type backend struct {
	cfg  *Config
	hier *cache.Hierarchy

	regReady [34]uint64

	rob ring[robEntry]

	iq  *cycleCounter
	lsq *cycleCounter

	intALU *fuPool
	mulFU  *fuPool
	divFU  *fuPool
	fpFU   *fuPool
	mem    *fuPool

	// storeReady maps an 8-byte-aligned address to the cycle its most
	// recent store's data is forwardable.
	storeReady *u64table[uint64]

	// lastIssue is the wakeup/select cycle of the most recent dispatch —
	// read by the lifecycle tracer right after a dispatch call.
	lastIssue uint64

	// traceFn receives each retiring/flushed micro-op's lifecycle record
	// (SetUopTraceHook); nil when tracing is off.
	traceFn func(*UopTrace)
}

func newBackend(cfg *Config, hier *cache.Hierarchy) *backend {
	return &backend{
		cfg:        cfg,
		hier:       hier,
		iq:         newCycleCounter(),
		lsq:        newCycleCounter(),
		intALU:     newFUPool(cfg.IntALUs, cfg.IntLatency, true),
		mulFU:      newFUPool(cfg.MulUnits, cfg.MulLatency, true),
		divFU:      newFUPool(cfg.DivUnits, cfg.DivLatency, false),
		fpFU:       newFUPool(cfg.FPUnits, cfg.FPLatency, true),
		mem:        newFUPool(cfg.MemPorts, 0, true),
		storeReady: newU64Table[uint64](10),
	}
}

// robLen returns current ROB occupancy.
func (b *backend) robLen() int { return b.rob.len() }

// canDispatch reports whether the back end has room for one more uop.
func (b *backend) canDispatch(now uint64, isMem bool) bool {
	return b.dispatchBlock(now, isMem) == blockNone
}

// dispatchBlock reports which structure (if any) blocks the next dispatch,
// checked in ROB → IQ → LSQ order so the CPI stack charges the outermost
// full structure.
func (b *backend) dispatchBlock(now uint64, isMem bool) int {
	b.iq.drain(now)
	b.lsq.drain(now)
	if b.robLen() >= b.cfg.ROBSize {
		return blockROB
	}
	if b.iq.Len() >= b.cfg.IQSize {
		return blockIQ
	}
	if isMem && b.lsq.Len() >= b.cfg.LSQSize {
		return blockLSQ
	}
	return blockNone
}

func (b *backend) srcReady(u *uop.UOp) uint64 {
	var r uint64
	if u.Src1 != isa.RegNone && !u.Src1Imm {
		if t := b.regReady[u.Src1]; t > r {
			r = t
		}
	}
	if u.Src2 != isa.RegNone && !u.Src2Imm {
		if t := b.regReady[u.Src2]; t > r {
			r = t
		}
	}
	return r
}

// dispatch enters one micro-op into the back end at cycle `now`, computing
// its completion time from operand readiness, functional-unit contention
// and memory latency. The caller has already checked canDispatch.
// memAddr is the oracle-provided effective address for loads/stores.
// Returns the completion cycle.
func (b *backend) dispatch(u *uop.UOp, now uint64, memAddr uint64, doomed bool, st *Stats) uint64 {
	ready := b.srcReady(u)
	if ready < now {
		ready = now
	}
	var start, complete uint64

	switch u.Kind {
	case uop.KAlu:
		switch u.Fn {
		case isa.FnMul:
			start, complete = b.mulFU.issue(ready, now)
			st.MulDivOps++
		case isa.FnDiv:
			start, complete = b.divFU.issue(ready, now)
			st.MulDivOps++
		default:
			start, complete = b.intALU.issue(ready, now)
			st.IntOps++
		}
		b.iq.push(start)
	case uop.KMovImm, uop.KNop, uop.KHalt:
		// Zero-latency at rename (immediate moves resolve in the map
		// table; nop/halt occupy only the ROB).
		start, complete = ready, ready
	case uop.KMov:
		// Rename-time move elimination (Icelake baseline feature).
		start, complete = ready, ready
		st.RenameMoveElim++
	case uop.KLoad:
		lat := b.hier.LoadLatency(memAddr)
		aligned := memAddr &^ 7
		if fwd, ok := b.storeReady.get(aligned); ok {
			// Store-to-load forwarding.
			if fwd > ready {
				ready = fwd
			}
			if lat > b.hier.L1D.Config().Latency {
				lat = b.hier.L1D.Config().Latency
			}
		}
		start, complete = b.mem.issueLatency(ready, now, lat)
		b.iq.push(start)
		b.lsq.push(complete)
		st.Loads++
	case uop.KStore:
		start, complete = b.mem.issueLatency(ready, now, 1)
		b.hier.StoreAccess(memAddr)
		if !doomed {
			if b.storeReady.len() > 1<<14 {
				b.storeReady.clear()
			}
			b.storeReady.put(memAddr&^7, complete)
		}
		b.iq.push(start)
		b.lsq.push(complete)
		st.Stores++
	case uop.KBranch, uop.KJump, uop.KJumpReg:
		start, complete = b.intALU.issue(ready, now)
		b.iq.push(start)
		st.IntOps++
	case uop.KFp:
		start, complete = b.fpFU.issue(ready, now)
		b.iq.push(start)
		st.FPOps++
	default:
		start, complete = ready, ready
	}

	if u.HasDst() && !doomed {
		b.regReady[u.Dst] = complete
	}
	b.lastIssue = start
	st.IssuedUops++
	return complete
}

// pushROB appends the dispatched uop for in-order commit tracking. tr is
// the uop's lifecycle record (nil unless tracing is enabled).
func (b *backend) pushROB(complete uint64, doomed, slot, macroEnd bool, tr *UopTrace) {
	b.rob.push(robEntry{complete: complete, doomed: doomed, slot: slot, macroEnd: macroEnd, tr: tr})
}

// inlineLiveOut makes a rename-time-inlined constant immediately available
// to dependents (physical register inlining).
func (b *backend) inlineLiveOut(r isa.Reg, now uint64) {
	if r < isa.Reg(len(b.regReady)) {
		b.regReady[r] = now
	}
}

// commit retires up to CommitWidth completed uops in order, updating stats.
// It returns how many committed and how many doomed uops were squashed.
func (b *backend) commit(now uint64, st *Stats) (retired, squashed int) {
	for retired+squashed < b.cfg.CommitWidth && !b.rob.empty() {
		e := b.rob.front()
		if e.complete > now {
			break
		}
		if e.doomed {
			squashed++
			st.SquashedUops++
		} else {
			retired++
			st.CommittedUops++
			if e.slot {
				st.CommittedSlots++
			}
			if e.macroEnd {
				st.CommittedMacros++
			}
		}
		if e.tr != nil {
			// Deliver the lifecycle record in retire order; flushed uops
			// keep CommitCycle == 0 (the O3PipeView squash convention).
			if !e.doomed {
				e.tr.CommitCycle = now
			}
			if b.traceFn != nil {
				b.traceFn(e.tr)
			}
			e.tr = nil
		}
		b.rob.advance()
	}
	return retired, squashed
}

// drained reports whether all in-flight work has retired.
func (b *backend) drained() bool { return b.rob.empty() }
