package pipeline

import (
	"fmt"

	"sccsim/internal/asm"
	"sccsim/internal/bpred"
	"sccsim/internal/cache"
	"sccsim/internal/emu"
	"sccsim/internal/isa"
	"sccsim/internal/scc"
	"sccsim/internal/uop"
	"sccsim/internal/uopcache"
	"sccsim/internal/vpred"
)

// fetch sources (Figure 7's three-way breakdown).
const (
	srcDecode = iota
	srcUnopt
	srcOpt
)

// idqEntry is one micro-op waiting in the instruction decode queue.
type idqEntry struct {
	u        uop.UOp
	memAddr  uint64
	doomed   bool // part of a violated compacted stream: flushes, never commits
	redirect bool // fetch resumes only after this uop completes (+ penalty)
	liveOuts []uopcache.LiveOut
	source   int
	tr       *UopTrace // lifecycle record (nil unless tracing is enabled)
}

// cpiSig collects the per-cycle stall signals the CPI-stack classifier
// consumes, and the counters the cycle charged, which a skip over the
// quiet cycles after it charges again; reset at the top of every cycle.
type cpiSig struct {
	redirectStall  bool // fetch stalled waiting out a redirect
	redirectSquash bool // ... and the redirect is an SCC squash
	block          int  // dispatch-block reason (blockNone when unblocked)
	// fetchStall is the fetch stall counter charged this cycle
	// (IDQStallCycles, SquashCycles, MispredictCycles or
	// FetchIdleCycles), nil when fetch did not stall.
	fetchStall *uint64
	slot       *uint64 // the CPI-stack slot accountCycle charged
}

// stream is a run of fetched entries being pushed into the IDQ.
type stream struct {
	entries []idqEntry
	idx     int
	rate    int    // slots pushed per cycle (fetch vs decode width)
	readyAt uint64 // first cycle entries may enter the IDQ
	source  int
}

// Machine is the complete simulated processor.
type Machine struct {
	Cfg    Config
	Prog   *asm.Program
	Oracle *emu.Machine
	BP     *bpred.Unit
	VP     vpred.Predictor
	Hier   *cache.Hierarchy
	UC     *uopcache.UopCache
	Unit   *scc.Unit
	Stats  Stats

	be  *backend
	dec *uop.Decoder

	idq      ring[idqEntry]
	idqSlots int

	cur stream
	// streamBuf is the persistent backing array for stream entries: every
	// buildTrace/buildFromOpt/buildDoomedStream reuses it (entries are
	// copied by value into the IDQ, and a new stream is only built once the
	// previous one has fully drained), so stream construction stops
	// allocating once the high-water mark is reached.
	streamBuf []idqEntry

	redirectPending  bool
	redirectIsSquash bool
	resumeFetchAt    uint64 // 0 = not yet known (redirect uop not dispatched)

	nextPC uint64
	// forceUnopt holds entry PCs whose next fetch must bypass the
	// optimized partition (post-squash recovery); at most a handful are
	// ever pending, so a linear-scanned slice beats a map.
	forceUnopt []uint64
	// locked tracks lines pinned in the unoptimized partition while a
	// compaction job reads them; the partition caps locked ways at
	// MaxWaysPerRegion, so the list stays tiny.
	locked []lockedLine
	// regions is the per-region compaction-control table (open-addressed):
	// last request cycle for the re-request cooldown, and the invariant-
	// violation count driving the exponential re-compaction backoff (§V's
	// phase-out of streams whose invariants have gone stale).
	regions *u64table[regionState]
	scratch []*uopcache.Line

	// dryRes holds per-uop oracle results from the most recent compacted-
	// stream validation dry-run, keyed by scc.VPKey, together with the
	// dynamic-occurrence counter used to bind wrapped-loop invariants.
	dryRes *u64table[dryEntry]

	// Interval sampling hook (SetSampleHook): called with a snapshot of
	// Stats each time another sampleEvery committed micro-ops accumulate.
	sampleFn    func(Stats)
	sampleEvery uint64
	nextSample  uint64

	// Per-uop lifecycle tracing hook (SetUopTraceHook); nil = off.
	traceFn  func(*UopTrace)
	traceSeq uint64

	// SCC journal hook bundle (SetSCCJournal); nil = off.
	journal *scc.Journal

	// sig carries this cycle's stall signals into the CPI classifier.
	sig cpiSig

	cycle uint64

	// Run's progress guard: the last cycle CommittedUops moved at, and
	// the count it moved to. Run resets both on entry.
	lastProgress, lastCommitted uint64

	// startCycle is the cycle the machine was built or restored at, and
	// skipped counts the cycles its Run calls jumped over after a quiet
	// cycle. Host-side bookkeeping: not part of Stats, not snapshotted.
	startCycle, skipped uint64

	// perCycle makes Run simulate every cycle instead of skipping quiet
	// ones: the reference the skipping path is tested against.
	perCycle bool
}

// lockedLine pairs a locked unoptimized line with the region PC whose
// compaction job holds the lock.
type lockedLine struct {
	pc   uint64
	line *uopcache.Line
}

// regionState is the per-region entry of Machine.regions.
type regionState struct {
	// reqAt is the cycle of the region's last accepted compaction request
	// (0 = never requested; requests only happen at cycle >= 1).
	reqAt uint64
	// squashes counts invariant-violation squashes charged to the region.
	squashes uint64
}

// dryEntry is one dry-run record in Machine.dryRes.
type dryEntry struct {
	res emu.ExecResult
	// occ counts dynamic occurrences of the key seen so far in the walk
	// (wrapped loop iterations revisit the same static micro-op).
	occ int32
}

// New builds a machine for the given program and configuration. A
// configuration Validate rejects returns its error.
func New(cfg Config, prog *asm.Program) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	vp := vpred.New(cfg.ValuePredictor)
	if vp == nil {
		return nil, fmt.Errorf("pipeline: unknown value predictor %q", cfg.ValuePredictor)
	}
	m := &Machine{
		Cfg:     cfg,
		Prog:    prog,
		Oracle:  emu.New(prog),
		BP:      bpred.NewUnit(),
		VP:      vp,
		Hier:    cache.NewHierarchy(cfg.Hier),
		UC:      uopcache.New(cfg.UC),
		dec:     uop.NewDecoder(prog.InstAt),
		regions: newU64Table[regionState](8),
		dryRes:  newU64Table[dryEntry](8),
	}
	m.be = newBackend(&m.Cfg, m.Hier)
	m.nextPC = prog.Entry
	if cfg.SCCEnabled {
		m.Unit = scc.NewUnit(cfg.SCC, scc.Env{
			UopsAt: m.dec.At,
			Resident: func(pc uint64) bool {
				return m.UC.Unopt.RegionResident(pc)
			},
			ProbeValue: func(key uint64) (int64, int, bool) {
				m.Stats.SCCVPProbes++
				p, ok := m.VP.Predict(key)
				// Only stable predictions qualify as data invariants: a
				// nonzero-stride prediction is right for the next dynamic
				// instance but cannot hold across repeated executions of
				// the compacted stream.
				return p.Value, p.Confidence, ok && p.Stable
			},
			ProbeBranch: func(pc uint64, cond bool, tgt uint64, isRet bool) (bool, uint64, int) {
				m.Stats.SCCBPProbes++
				return m.BP.Probe(pc, cond, tgt, isRet)
			},
		})
	}
	return m, nil
}

// SetSampleHook registers fn to be called with a snapshot of the stats
// each time another every committed micro-ops have accumulated, giving
// observers an interval-level view of phase behaviour. every == 0 or a
// nil fn disables sampling (the default); the disabled path costs one
// nil check per cycle.
func (m *Machine) SetSampleHook(every uint64, fn func(Stats)) {
	if every == 0 || fn == nil {
		m.sampleFn, m.sampleEvery = nil, 0
		return
	}
	m.sampleFn = fn
	m.sampleEvery = every
	m.nextSample = m.Stats.CommittedUops + every
}

// SetSCCJournal attaches the SCC journal hook bundle: the unit emits
// request/job events, the fetch path emits per-Select verdicts, and the
// squash path emits invariant-violation forensics. A nil journal (the
// default) disables everything; the off path costs one nil check per
// decision point. The journal is a pure tap — hooks never feed back into
// the simulation.
func (m *Machine) SetSCCJournal(j *scc.Journal) {
	m.journal = j
	if m.Unit != nil {
		m.Unit.SetJournal(j)
	}
}

// progressLimit is how many cycles Run waits for a commit before it
// gives up with an error.
const progressLimit = 100_000

// Run simulates until the program halts or cfg.MaxUops micro-ops commit.
// It returns the final stats.
//
// After a quiet cycle (see step) Run jumps to the cycle before the next
// event (nextEvent) instead of simulating the cycles in between: each of
// them would repeat the quiet cycle exactly, so skipQuiet charges them
// the same counters and every statistic, hook call and trace record is
// the one per-cycle simulation produces.
func (m *Machine) Run() (*Stats, error) {
	m.lastProgress, m.lastCommitted = 0, 0
	for {
		quiet, done, err := m.step()
		if done || err != nil {
			return &m.Stats, err
		}
		if quiet && !m.perCycle {
			m.skipQuiet()
		}
	}
}

// CycleCounts returns how many cycles this machine's Run calls advanced
// and how many of those they skipped instead of simulating. Neither is
// part of Stats or of a snapshot.
func (m *Machine) CycleCounts() (cycles, skipped uint64) {
	return m.cycle - m.startCycle, m.skipped
}

// step simulates one cycle: commit, dispatch, fetch, the SCC unit and the
// decay clock, then the cycle's CPI-stack slot, the sample hook and the
// progress guard. done reports that the run is over; err that the guard
// tripped. quiet reports that nothing retired or squashed, nothing
// dispatched, fetch neither moved the stream nor built one nor cleared a
// redirect, and the SCC unit had nothing to do.
func (m *Machine) step() (quiet, done bool, err error) {
	m.cycle++
	m.Stats.Cycles = m.cycle
	m.sig = cpiSig{}

	retired, squashed := m.be.commit(m.cycle, &m.Stats)
	dispatched := m.dispatch()
	fetched := m.fetch()
	// The unit goes after fetch: a request fetch enqueues this cycle is
	// dispatched this cycle.
	unitBusy := m.sccTick()
	m.UC.Advance(1)

	// Attribute the cycle to its CPI-stack slot, then sample: the
	// hook thereby always observes slots summing exactly to Cycles.
	m.accountCycle(retired, squashed)
	if m.sampleFn != nil && m.Stats.CommittedUops >= m.nextSample {
		m.sampleFn(m.Stats)
		for m.nextSample <= m.Stats.CommittedUops {
			m.nextSample += m.sampleEvery
		}
	}

	if m.Stats.CommittedUops != m.lastCommitted {
		m.lastCommitted = m.Stats.CommittedUops
		m.lastProgress = m.cycle
	}
	// MaxUops bounds *program work* (micro-ops executed by the
	// functional oracle), which is identical across configurations —
	// the fixed-work unit that makes committed-uop and cycle counts
	// comparable between the baseline and SCC. Once the budget is
	// reached, fetch stops and the pipeline drains.
	if (m.Oracle.Halted() || m.Oracle.UopCount >= m.Cfg.MaxUops) &&
		m.streamEmpty() && m.idqEmpty() && m.be.drained() {
		return false, true, nil
	}
	if m.cycle-m.lastProgress > progressLimit {
		return false, false, fmt.Errorf("pipeline: no commit progress for %d cycles at cycle %d (pc %#x)", progressLimit, m.cycle, m.nextPC)
	}
	quiet = retired == 0 && squashed == 0 && !dispatched && !fetched && !unitBusy
	return quiet, false, nil
}

// skipQuiet follows a quiet cycle: it advances to the cycle before
// nextEvent, charging each skipped cycle what the quiet cycle was
// charged — its CPI-stack slot, its dispatch and fetch stall counters
// and one tick of the decay clock.
func (m *Machine) skipQuiet() {
	next := m.nextEvent()
	if next <= m.cycle+1 {
		return
	}
	k := next - 1 - m.cycle
	m.cycle += k
	m.skipped += k
	m.Stats.Cycles = m.cycle
	*m.sig.slot += k
	if m.sig.block != blockNone {
		m.Stats.ROBStallCycles += k
	}
	if m.sig.fetchStall != nil {
		*m.sig.fetchStall += k
	}
	m.UC.Advance(int(k))
}

// nextEvent returns, after a quiet cycle, the first later cycle at which
// something can change: the ROB head completes, the pending stream
// becomes ready, a known redirect resumes fetch, the SCC unit finishes
// its job, the structure that blocked dispatch (IQ or LSQ) releases an
// entry, or the progress guard trips. A full ROB frees up only through
// commit, a full IDQ only through dispatch, and an unknown redirect
// resume only through dispatch, so those need no event of their own.
// Candidates at or before the current cycle already held on the quiet
// cycle and move nothing.
func (m *Machine) nextEvent() uint64 {
	next := m.lastProgress + progressLimit + 1
	at := func(c uint64) {
		if c > m.cycle && c < next {
			next = c
		}
	}
	if !m.be.rob.empty() {
		at(m.be.rob.front().complete)
	}
	if !m.streamEmpty() {
		at(m.cur.readyAt)
	}
	if m.redirectPending && m.resumeFetchAt != 0 {
		at(m.resumeFetchAt)
	}
	if m.Unit != nil {
		at(m.Unit.NextEvent())
	}
	switch m.sig.block {
	case blockIQ:
		at(m.be.iq.nextRelease())
	case blockLSQ:
		at(m.be.lsq.nextRelease())
	}
	return next
}

func (m *Machine) streamEmpty() bool { return m.cur.idx >= len(m.cur.entries) }
func (m *Machine) idqEmpty() bool    { return m.idq.empty() }

// accountCycle lands the just-simulated cycle in exactly one CPI-stack
// slot (top-down attribution). Priority: useful work, then wasted work
// (bad speculation), then structural backend stalls, then execution
// latency, then the front end — so the stack explains the *bottleneck*
// of each cycle, and the slots sum to Cycles by construction.
func (m *Machine) accountCycle(retired, squashed int) {
	st := &m.Stats
	var slot *uint64
	switch {
	case retired > 0:
		slot = &st.CPIRetiring
	case squashed > 0 || (m.sig.redirectStall && m.sig.redirectSquash):
		// Doomed uops draining through commit, or fetch waiting out an
		// SCC invariant-violation squash: wasted speculative work.
		slot = &st.CPIBadSpecSquash
	case m.sig.redirectStall:
		slot = &st.CPIBadSpecMispredict
	case m.sig.block == blockROB:
		slot = &st.CPIBackendROB
	case m.sig.block == blockIQ:
		slot = &st.CPIBackendIQ
	case m.sig.block == blockLSQ:
		slot = &st.CPIBackendLSQ
	case m.be.robLen() > 0:
		// Nothing retired and dispatch was not structurally blocked, but
		// work is in flight: waiting on FU/memory latency or contention.
		slot = &st.CPIBackendExec
	case !m.streamEmpty() && m.cycle < m.cur.readyAt && m.cur.source == srcDecode:
		// The pending stream is serving an icache fetch + legacy decode.
		slot = &st.CPIFrontendICache
	default:
		// Empty pipe with no excuse from the back end: uop delivery.
		slot = &st.CPIFrontendUop
	}
	*slot++
	m.sig.slot = slot
}

// stallFetch charges this cycle to the fetch stall counter c.
func (m *Machine) stallFetch(c *uint64) {
	*c++
	m.sig.fetchStall = c
}

// --- dispatch: IDQ → back end ---

// dispatch renames up to RenameWidth fused slots from the IDQ into the
// back end and reports whether it dispatched any micro-op.
func (m *Machine) dispatch() bool {
	slots := 0
	dispatched := false
	for !m.idqEmpty() && slots < m.Cfg.RenameWidth {
		e := m.idq.front()
		isMem := e.u.Kind == uop.KLoad || e.u.Kind == uop.KStore
		if block := m.be.dispatchBlock(m.cycle, isMem); block != blockNone {
			m.Stats.ROBStallCycles++
			m.sig.block = block
			return dispatched
		}
		dispatched = true
		complete := m.be.dispatch(&e.u, m.cycle, e.memAddr, e.doomed, &m.Stats)
		if e.tr != nil {
			e.tr.RenameCycle = m.cycle
			e.tr.IssueCycle = m.be.lastIssue
			e.tr.CompleteCycle = complete
		}
		m.be.pushROB(complete, e.doomed, !e.u.FusedWithPrev, e.u.SeqNum == e.u.NumInMacro-1, e.tr)
		m.Stats.RenamedUops++
		if e.redirect && m.resumeFetchAt == 0 {
			m.resumeFetchAt = complete + uint64(m.Cfg.RedirectLatency)
		}
		for _, lo := range e.liveOuts {
			m.be.inlineLiveOut(lo.Reg, m.cycle)
			m.Stats.LiveOutsInlined++
		}
		if !e.u.FusedWithPrev {
			slots++
		}
		m.idqSlots -= boolToInt(!e.u.FusedWithPrev)
		m.idq.advance()
	}
	return dispatched
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// --- fetch ---

// fetch reports whether it did more than stall: moved stream entries into
// the IDQ, cleared a redirect or built a stream.
func (m *Machine) fetch() (active bool) {
	// The fetch engine delivers up to FetchWidth fused slots per cycle,
	// chaining across line boundaries as real uop caches do. Streams from
	// the legacy decode path are additionally rate-limited by DecodeWidth
	// inside pushStream.
	budget := m.Cfg.FetchWidth
	for budget > 0 {
		idx := m.cur.idx
		n, blocked := m.pushStream(budget)
		active = active || m.cur.idx != idx // fused entries move it too
		budget -= n
		if blocked || budget == 0 {
			return active
		}
		if !m.streamEmpty() {
			return active // waiting on readyAt
		}
		// Stream exhausted: handle pending redirects before building more.
		if m.redirectPending {
			if m.resumeFetchAt == 0 || m.cycle < m.resumeFetchAt {
				m.sig.redirectStall = true
				m.sig.redirectSquash = m.redirectIsSquash
				if m.redirectIsSquash {
					m.stallFetch(&m.Stats.SquashCycles)
				} else {
					m.stallFetch(&m.Stats.MispredictCycles)
				}
				return active
			}
			m.redirectPending = false
			m.resumeFetchAt = 0
			active = true
		}
		if m.Oracle.Halted() || m.Oracle.UopCount >= m.Cfg.MaxUops {
			m.stallFetch(&m.Stats.FetchIdleCycles)
			return active
		}
		active = true // even when the stream comes out empty
		m.buildStream()
		if m.streamEmpty() {
			return active // nothing fetchable (halt)
		}
	}
	return active
}

// pushStream moves up to min(budget, stream rate) fused slots into the
// IDQ. It returns the slots pushed and whether it hit a capacity block.
func (m *Machine) pushStream(budget int) (int, bool) {
	if m.streamEmpty() || m.cycle < m.cur.readyAt {
		return 0, false
	}
	rate := m.cur.rate
	if rate > budget {
		rate = budget
	}
	pushed := 0
	for m.cur.idx < len(m.cur.entries) && pushed < rate {
		e := m.cur.entries[m.cur.idx]
		if !e.u.FusedWithPrev && m.idqSlots >= m.Cfg.IDQSize {
			m.stallFetch(&m.Stats.IDQStallCycles)
			return pushed, true
		}
		if e.tr != nil {
			e.tr.DecodeCycle = m.cycle
		}
		m.idq.push(e)
		if !e.u.FusedWithPrev {
			m.idqSlots++
			pushed++
		}
		m.cur.idx++
		switch e.source {
		case srcDecode:
			m.Stats.UopsFromDecode += uint64(boolToInt(!e.u.FusedWithPrev))
		case srcUnopt:
			m.Stats.UopsFromUnopt += uint64(boolToInt(!e.u.FusedWithPrev))
		case srcOpt:
			m.Stats.UopsFromOpt += uint64(boolToInt(!e.u.FusedWithPrev))
		}
	}
	// A decode-path stream exhausts the cycle's decode bandwidth.
	blocked := m.cur.source == srcDecode && pushed >= rate && !m.streamEmpty()
	return pushed, blocked
}

// buildStream selects the next fetch source at nextPC and constructs the
// stream (the fetch state machine of Figure 5).
func (m *Machine) buildStream() {
	pc := m.nextPC

	var sel uopcache.Selection
	forced := false
	if m.consumeForceUnopt(pc) {
		// Post-squash redirect: the offending stream came from the
		// optimized partition, so fetch must source the unoptimized
		// version this time (§V misspeculation recovery).
		sel = uopcache.Selection{Line: m.UC.Unopt.Lookup(pc)}
		forced = true
	} else {
		sel, m.scratch = m.UC.Select(pc, m.scratch, m.vpMatches)
	}
	if m.journal != nil && m.journal.Select != nil {
		ev := scc.SelectEvent{
			Cycle: m.cycle, PC: pc, FromOpt: sel.FromOpt, Score: sel.Score,
			Candidates: sel.Candidates, GateTrips: sel.GateTrips,
			ForcedUnopt: forced,
		}
		if sel.FromOpt {
			ev.JobID = sel.Line.Meta.JobID
		}
		m.journal.Select(ev)
	}

	switch {
	case sel.FromOpt:
		m.buildFromOpt(sel.Line)
		// Periodically re-optimize even while an optimized version is
		// streaming: predictions mature over time, so a later compaction
		// job may mint a better (or co-hosted alternative) version that
		// the profitability score will then prefer (§V: making room for
		// newer and potentially more useful instruction streams).
		m.maybeRequestCompaction(nil, pc, 2000)
	case sel.Line != nil:
		m.buildTrace(sel.Line.Slots, srcUnopt, 0)
		m.maybeRequestCompaction(sel.Line, pc, 200)
	default:
		m.buildFromDecode(pc)
	}
}

// vpMatches implements the §V profitability check: a stored data invariant
// must match the value predictor's *current* prediction to stream.
func (m *Machine) vpMatches(d uopcache.DataInvariant) bool {
	// Later occurrences of a key (wrapped loop iterations) cannot be
	// checked against the predictor's single current prediction; the
	// first occurrence's check plus execution-time validation covers them.
	if d.Occ > 0 {
		return true
	}
	m.Stats.VPLookups++
	p, ok := m.VP.Predict(d.Key)
	return ok && p.Value == d.Value
}

// maybeRequestCompaction enqueues a compaction request when a line crosses
// the hotness threshold. line may be nil (re-optimization of a region that
// is currently streaming from the optimized partition); baseCooldown is the
// minimum re-request interval, scaled up exponentially for squash-prone
// regions.
func (m *Machine) maybeRequestCompaction(line *uopcache.Line, pc uint64, baseCooldown uint64) {
	if m.Unit == nil || !m.Unit.Enabled() {
		return
	}
	if line != nil && m.UC.Unopt.Hot(line) < m.Cfg.UC.HotThreshold {
		return
	}
	rs := m.regions.ref(pc)
	cooldown := baseCooldown
	if n := rs.squashes; n > 0 {
		if n > 8 {
			n = 8
		}
		cooldown <<= n // exponential backoff for squash-prone regions
	}
	if rs.reqAt != 0 && m.cycle-rs.reqAt < cooldown {
		return
	}
	if m.Unit.Request(m.cycle, pc) {
		rs.reqAt = m.cycle
		if line != nil && m.UC.Unopt.Lock(line) {
			m.lockLine(pc, line)
		}
	}
}

// consumeForceUnopt reports (and clears) a pending post-squash
// unoptimized-fetch override for pc.
func (m *Machine) consumeForceUnopt(pc uint64) bool {
	for i, p := range m.forceUnopt {
		if p == pc {
			m.forceUnopt[i] = m.forceUnopt[len(m.forceUnopt)-1]
			m.forceUnopt = m.forceUnopt[:len(m.forceUnopt)-1]
			return true
		}
	}
	return false
}

// addForceUnopt arms the post-squash unoptimized-fetch override for pc.
func (m *Machine) addForceUnopt(pc uint64) {
	for _, p := range m.forceUnopt {
		if p == pc {
			return
		}
	}
	m.forceUnopt = append(m.forceUnopt, pc)
}

// lockLine records a locked line for pc, replacing any prior entry for the
// same region (matching the previous map semantics).
func (m *Machine) lockLine(pc uint64, line *uopcache.Line) {
	for i := range m.locked {
		if m.locked[i].pc == pc {
			m.locked[i].line = line
			return
		}
	}
	m.locked = append(m.locked, lockedLine{pc: pc, line: line})
}

// trainBranch updates the full branch prediction substrate with a resolved
// branch outcome and returns whether the front-end prediction was correct.
func (m *Machine) trainBranch(u *uop.UOp, res emu.ExecResult) bool {
	m.Stats.BranchUops++
	m.Stats.BPLookups++
	isRet := u.Kind == uop.KJumpReg && u.Src1 == isa.LR
	cond := u.Kind == uop.KBranch
	direct := u.Target
	if u.Kind == uop.KJumpReg {
		direct = 0
	}
	predTaken, predTarget, _ := m.BP.PredictUop(0, u.MacroPC, cond, direct, isRet)

	correct := predTaken == res.Taken && (!res.Taken || predTarget == res.Target)

	// Train.
	if cond {
		m.BP.Dir.Update(u.MacroPC, res.Taken)
		if res.Taken {
			m.BP.Btb.Update(u.MacroPC, res.Target)
		}
		if res.Taken && res.Target <= u.MacroPC {
			m.BP.Lsd.Update(u.MacroPC, true)
		} else if !res.Taken {
			m.BP.Lsd.Update(u.MacroPC, false)
		}
	} else {
		m.BP.Btb.Update(u.MacroPC, res.Target)
		if isRet {
			m.BP.Ras.Pop()
		} else if u.Kind == uop.KJumpReg {
			m.BP.Itt.Update(u.MacroPC, res.Target)
		}
	}
	if !correct {
		m.Stats.BranchMispredicts++
	}
	return correct
}

// trainValue trains the value predictor on an executed uop's result.
// FP destinations train only under the FP-compaction extension.
func (m *Machine) trainValue(u *uop.UOp, res emu.ExecResult) {
	if !u.HasDst() || u.Dst == isa.RegTmp {
		return
	}
	if u.Dst.IsFP() && !m.Cfg.SCC.EnableFPFold {
		return
	}
	switch u.Kind {
	case uop.KLoad, uop.KAlu, uop.KMovImm, uop.KMov:
		m.VP.Train(scc.VPKey(u), res.Value)
		m.Stats.VPTrains++
	}
}

// rasOnCall pushes the return address when a call's link-write uop executes.
func (m *Machine) rasOnCall(u *uop.UOp) {
	if u.Kind == uop.KMovImm && u.Dst == isa.LR {
		m.BP.Ras.Push(uint64(u.Imm))
	}
}

// buildTrace generates a stream by advancing the oracle up to budgetSlots
// fused slots, stopping at a taken branch, a halt, a misprediction, or the
// end of the entry's 32-byte code region (micro-op cache lines are
// region-aligned, matching the SCC unit's optimization granularity).
// This is both the unoptimized-partition streaming path and (via
// buildFromDecode) the legacy decode path.
func (m *Machine) buildTrace(budgetSlots int, source int, latency uint64) []idqEntry {
	m.cur = stream{entries: m.streamBuf[:0], rate: m.Cfg.FetchWidth, readyAt: m.cycle + latency, source: source}
	if source == srcDecode {
		m.cur.rate = m.Cfg.DecodeWidth
	}
	tracing := m.traceFn != nil
	region := isa.RegionStart(m.Oracle.PC())
	slots := 0
	for slots < budgetSlots {
		if isa.RegionStart(m.Oracle.PC()) != region && m.Oracle.Seq() == 0 {
			break // region boundary: the line ends here
		}
		res, ok := m.Oracle.StepUop()
		if !ok {
			break
		}
		u := *res.U
		e := idqEntry{u: u, memAddr: res.MemAddr, source: source}
		if tracing {
			e.tr = m.newUopTrace(&u, source, false)
		}
		m.trainValue(&u, res)
		m.rasOnCall(&u)
		stop := false
		if u.IsBranchKind() {
			correct := m.trainBranch(&u, res)
			if !correct {
				e.redirect = true
				m.redirectPending = true
				m.redirectIsSquash = false
				stop = true
			} else if res.Taken {
				stop = true // lines/fetch groups end at taken branches
			}
		}
		if u.Kind == uop.KHalt {
			stop = true
		}
		m.cur.entries = append(m.cur.entries, e)
		if !u.FusedWithPrev {
			slots++
		}
		if stop {
			break
		}
	}
	m.nextPC = m.Oracle.PC()
	if source == srcDecode {
		m.Stats.DecodedUops += uint64(len(m.cur.entries))
	}
	m.streamBuf = m.cur.entries
	return m.cur.entries
}

// buildFromDecode fetches via the instruction cache and legacy decode
// pipeline, then installs the decoded uops as a new unoptimized line.
func (m *Machine) buildFromDecode(pc uint64) {
	fetchLat := m.Hier.FetchLatency(pc)
	m.Stats.ICacheFetches++
	entries := m.buildTrace(uopcache.MaxLineSlots, srcDecode,
		uint64(fetchLat+m.Cfg.DecodeLatency))
	if len(entries) == 0 {
		return
	}
	uops := make([]uop.UOp, len(entries))
	for i := range entries {
		uops[i] = entries[i].u
	}
	uop.MacroFuse(uops)
	m.UC.Unopt.Insert(uopcache.NewLine(pc, uops, nil))
}

// buildFromOpt streams a compacted line: the oracle dry-runs the original
// sequence under an undo log to validate every invariant; on success the
// compacted micro-ops are streamed (and the eliminated ones counted); on a
// violation the stream is squashed back to the unoptimized version (§V).
func (m *Machine) buildFromOpt(line *uopcache.Line) {
	meta := line.Meta
	m.dryRes.clear()

	m.Oracle.BeginUndo()
	violated := -1 // invariant index (data first, then control)
	var violObs emu.ExecResult
	steps := 0
	for steps < meta.OrigUops {
		res, ok := m.Oracle.StepUop()
		if !ok {
			break
		}
		steps++
		key := scc.VPKey(res.U)
		de := m.dryRes.ref(key)
		de.res = res
		thisOcc := int(de.occ)
		de.occ++
		// Check data invariants at their prediction sources; an invariant
		// binds to one dynamic occurrence of its key (wrapped loops).
		for i := range meta.DataInv {
			if meta.DataInv[i].Key == key && meta.DataInv[i].Occ == thisOcc &&
				meta.DataInv[i].Value != res.Value {
				violated = i
				break
			}
		}
		if violated >= 0 {
			violObs = res
			break
		}
		// Check control invariants at their branches.
		if res.U.IsBranchKind() {
			for i := range meta.CtrlInv {
				ci := &meta.CtrlInv[i]
				if ci.PC == res.U.MacroPC {
					if ci.Taken != res.Taken || (res.Taken && ci.Target != res.Target) {
						violated = len(meta.DataInv) + i
					}
					break
				}
			}
			if violated >= 0 {
				violObs = res
				break
			}
		}
	}

	if violated >= 0 {
		m.Oracle.Rollback()
		var ev scc.SquashEvent
		if m.journal != nil && m.journal.Squash != nil {
			// Forensics: capture the confidence trajectory before the
			// violation penalty mutates it.
			ev = scc.SquashEvent{
				Cycle: m.cycle, PC: line.EntryPC, JobID: meta.JobID,
			}
			if violated < len(meta.DataInv) {
				d := &meta.DataInv[violated]
				ev.Kind = scc.TransformDataInv
				ev.InvIdx = violated
				ev.SrcPC = d.PC
				ev.ConfAtPlant = d.ConfAtPlant
				ev.ConfAtViol = d.Conf
				ev.Predicted = d.Value
				ev.Observed = violObs.Value
			} else {
				ci := &meta.CtrlInv[violated-len(meta.DataInv)]
				ev.Kind = scc.TransformCtrlInv
				ev.InvIdx = violated - len(meta.DataInv)
				ev.SrcPC = ci.PC
				ev.ConfAtPlant = ci.ConfAtPlant
				ev.ConfAtViol = ci.Conf
				ev.Predicted = int64(ci.Target)
				ev.Observed = int64(violObs.Target)
				ev.PredictedTaken = ci.Taken
				ev.ObservedTaken = violObs.Taken
			}
		}
		meta.Penalize(violated)
		m.Stats.InvariantViolations++
		m.Stats.OptStreamsSquashed++
		m.regions.ref(line.EntryPC).squashes++
		m.buildDoomedStream(line, violated)
		if m.journal != nil && m.journal.Squash != nil {
			ev.DoomedUops = len(m.cur.entries)
			ev.PenaltyCycles = m.Cfg.RedirectLatency
			m.journal.Squash(ev)
		}
		m.addForceUnopt(line.EntryPC)
		m.nextPC = line.EntryPC
		return
	}

	// All invariants hold: commit the dry-run architecturally.
	m.Oracle.CommitUndo()
	meta.Reward()
	m.Stats.OptStreams++
	m.Stats.ElimMove += uint64(meta.ElimMove)
	m.Stats.ElimFold += uint64(meta.ElimFold)
	m.Stats.ElimBranch += uint64(meta.ElimBranch)
	m.Stats.ElimDead += uint64(meta.ElimDead)
	m.Stats.Propagated += uint64(meta.Propagated)
	switch n := len(meta.LiveOuts); {
	case n == 1:
		m.Stats.StreamsWith1LiveOut++
	case n == 2:
		m.Stats.StreamsWith2LiveOut++
	case n > 2:
		m.Stats.StreamsWithMoreLO++
	}

	m.cur = stream{entries: m.streamBuf[:0], rate: m.Cfg.FetchWidth, readyAt: m.cycle, source: srcOpt}
	tracing := m.traceFn != nil
	for i := range line.Uops {
		u := line.Uops[i]
		e := idqEntry{u: u, source: srcOpt}
		if tracing {
			e.tr = m.newUopTrace(&u, srcOpt, false)
		}
		if de, ok := m.dryRes.get(scc.VPKey(&u)); ok {
			res := de.res
			e.memAddr = res.MemAddr
			// Retained uops execute: train the predictors so their state
			// never goes out of sync while optimized streams run (§V).
			m.trainValue(&u, res)
			m.rasOnCall(&u)
			if u.IsBranchKind() {
				if u.PredSource {
					// Control-invariant branch: validated above; train.
					m.Stats.BranchUops++
					if u.Kind == uop.KBranch {
						m.BP.Dir.Update(u.MacroPC, res.Taken)
						if res.Taken {
							m.BP.Btb.Update(u.MacroPC, res.Target)
						}
					} else {
						m.BP.Btb.Update(u.MacroPC, res.Target)
					}
				} else {
					// Terminal unresolved branch: normal prediction.
					if !m.trainBranch(&u, res) {
						e.redirect = true
						m.redirectPending = true
						m.redirectIsSquash = false
					}
				}
			}
		}
		m.cur.entries = append(m.cur.entries, e)
	}
	// Live-outs inline at the end of the compacted stream (§IV).
	if len(m.cur.entries) > 0 {
		m.cur.entries[len(m.cur.entries)-1].liveOuts = meta.LiveOuts
	} else {
		// Fully eliminated stream (no retained uops): inline immediately.
		for _, lo := range meta.LiveOuts {
			m.be.inlineLiveOut(lo.Reg, m.cycle)
			m.Stats.LiveOutsInlined += 1
		}
	}
	m.streamBuf = m.cur.entries
	m.nextPC = m.Oracle.PC()
}

// buildDoomedStream enqueues the violated compacted stream's uops up to and
// including the offending prediction source; they traverse the pipeline for
// timing (wrong-path work) but are flushed rather than committed, and the
// last one arms the squash redirect.
func (m *Machine) buildDoomedStream(line *uopcache.Line, violated int) {
	meta := line.Meta
	var stopKey uint64
	haveStop := false
	if violated < len(meta.DataInv) {
		stopKey = meta.DataInv[violated].Key
		haveStop = true
	} else if ci := violated - len(meta.DataInv); ci < len(meta.CtrlInv) {
		// Stop at the violating control-invariant branch.
		for i := range line.Uops {
			u := &line.Uops[i]
			if u.IsBranchKind() && u.MacroPC == meta.CtrlInv[ci].PC {
				stopKey = scc.VPKey(u)
				haveStop = true
				break
			}
		}
	}
	m.cur = stream{entries: m.streamBuf[:0], rate: m.Cfg.FetchWidth, readyAt: m.cycle, source: srcOpt}
	tracing := m.traceFn != nil
	for i := range line.Uops {
		u := line.Uops[i]
		e := idqEntry{u: u, source: srcOpt, doomed: true}
		if tracing {
			e.tr = m.newUopTrace(&u, srcOpt, true)
		}
		if de, ok := m.dryRes.get(scc.VPKey(&u)); ok {
			e.memAddr = de.res.MemAddr
		}
		last := haveStop && scc.VPKey(&u) == stopKey
		if last {
			e.redirect = true
		}
		m.cur.entries = append(m.cur.entries, e)
		if last {
			break
		}
	}
	if len(m.cur.entries) == 0 {
		// Defensive: violation with no retained uop; charge a fixed stall.
		m.resumeFetchAt = m.cycle + uint64(m.Cfg.RedirectLatency)
	} else if !m.cur.entries[len(m.cur.entries)-1].redirect {
		m.cur.entries[len(m.cur.entries)-1].redirect = true
	}
	m.streamBuf = m.cur.entries
	m.redirectPending = true
	m.redirectIsSquash = true
}

// --- SCC unit tick ---

// sccTick ticks the SCC unit when it has work this cycle and reports
// whether it did.
func (m *Machine) sccTick() bool {
	if m.Unit == nil || m.cycle < m.Unit.NextEvent() {
		return false
	}
	res, ok := m.Unit.Tick(m.cycle)
	if !ok {
		return true
	}
	m.Stats.SCCRCTReads += res.RCTReads
	m.Stats.SCCRCTWrites += res.RCTWrites
	m.Stats.SCCALUOps += uint64(res.ElimFold + res.ElimBranch)
	if res.Line != nil {
		m.Stats.SCCUopsWritten += uint64(len(res.Line.Uops))
		scc.InitialConfidence(res.Line.Meta)
		if m.UC.Opt != nil {
			m.UC.Opt.Insert(res.Line)
		}
		// Unlock the source line now that compaction finished.
		for i := range m.locked {
			if m.locked[i].pc == res.Line.EntryPC {
				m.UC.Unopt.Unlock(m.locked[i].line)
				m.locked = append(m.locked[:i], m.locked[i+1:]...)
				break
			}
		}
	} else {
		// Aborted or discarded. This unlocks every locked line, not only
		// this job's: lines locked for requests still queued lose their
		// lock too, so they may be evicted before their jobs run.
		for _, l := range m.locked {
			m.UC.Unopt.Unlock(l.line)
		}
		m.locked = m.locked[:0]
	}
	return true
}
