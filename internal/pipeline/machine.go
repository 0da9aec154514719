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
// consumes; reset at the top of every cycle.
type cpiSig struct {
	redirectStall  bool // fetch stalled waiting out a redirect
	redirectSquash bool // ... and the redirect is an SCC squash
	block          int  // dispatch-block reason (blockNone when unblocked)
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
	done  bool
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

// New builds a machine for the given program and configuration.
func New(cfg Config, prog *asm.Program) (*Machine, error) {
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

// Run simulates until the program halts or cfg.MaxUops micro-ops commit.
// It returns the final stats.
func (m *Machine) Run() (*Stats, error) {
	var lastProgress uint64
	lastCommitted := uint64(0)
	for !m.done {
		m.cycle++
		m.Stats.Cycles = m.cycle
		m.sig = cpiSig{}
		prevCommitted := m.Stats.CommittedUops
		prevSquashed := m.Stats.SquashedUops

		m.be.commit(m.cycle, &m.Stats)
		m.dispatch()
		m.fetch()
		m.sccTick()
		m.UC.Tick()

		// Attribute the cycle to its CPI-stack slot, then sample: the
		// hook thereby always observes slots summing exactly to Cycles.
		m.accountCycle(m.Stats.CommittedUops-prevCommitted, m.Stats.SquashedUops-prevSquashed)
		if m.sampleFn != nil && m.Stats.CommittedUops >= m.nextSample {
			m.sampleFn(m.Stats)
			for m.nextSample <= m.Stats.CommittedUops {
				m.nextSample += m.sampleEvery
			}
		}

		if m.Stats.CommittedUops != lastCommitted {
			lastCommitted = m.Stats.CommittedUops
			lastProgress = m.cycle
		}
		// MaxUops bounds *program work* (micro-ops executed by the
		// functional oracle), which is identical across configurations —
		// the fixed-work unit that makes committed-uop and cycle counts
		// comparable between the baseline and SCC. Once the budget is
		// reached, fetch stops and the pipeline drains.
		if (m.Oracle.Halted() || m.Oracle.UopCount >= m.Cfg.MaxUops) &&
			m.streamEmpty() && m.idqEmpty() && m.be.drained() {
			break
		}
		if m.cycle-lastProgress > 100_000 {
			return &m.Stats, fmt.Errorf("pipeline: no commit progress for 100000 cycles at cycle %d (pc %#x)", m.cycle, m.nextPC)
		}
	}
	return &m.Stats, nil
}

func (m *Machine) streamEmpty() bool { return m.cur.idx >= len(m.cur.entries) }
func (m *Machine) idqEmpty() bool    { return m.idq.empty() }

// accountCycle lands the just-simulated cycle in exactly one CPI-stack
// slot (top-down attribution). Priority: useful work, then wasted work
// (bad speculation), then structural backend stalls, then execution
// latency, then the front end — so the stack explains the *bottleneck*
// of each cycle, and the slots sum to Cycles by construction.
func (m *Machine) accountCycle(retired, squashed uint64) {
	st := &m.Stats
	switch {
	case retired > 0:
		st.CPIRetiring++
	case squashed > 0 || (m.sig.redirectStall && m.sig.redirectSquash):
		// Doomed uops draining through commit, or fetch waiting out an
		// SCC invariant-violation squash: wasted speculative work.
		st.CPIBadSpecSquash++
	case m.sig.redirectStall:
		st.CPIBadSpecMispredict++
	case m.sig.block == blockROB:
		st.CPIBackendROB++
	case m.sig.block == blockIQ:
		st.CPIBackendIQ++
	case m.sig.block == blockLSQ:
		st.CPIBackendLSQ++
	case m.be.robLen() > 0:
		// Nothing retired and dispatch was not structurally blocked, but
		// work is in flight: waiting on FU/memory latency or contention.
		st.CPIBackendExec++
	case !m.streamEmpty() && m.cycle < m.cur.readyAt && m.cur.source == srcDecode:
		// The pending stream is serving an icache fetch + legacy decode.
		st.CPIFrontendICache++
	default:
		// Empty pipe with no excuse from the back end: uop delivery.
		st.CPIFrontendUop++
	}
}

// --- dispatch: IDQ → back end ---

func (m *Machine) dispatch() {
	slots := 0
	for !m.idqEmpty() && slots < m.Cfg.RenameWidth {
		e := m.idq.front()
		isMem := e.u.Kind == uop.KLoad || e.u.Kind == uop.KStore
		if block := m.be.dispatchBlock(m.cycle, isMem); block != blockNone {
			m.Stats.ROBStallCycles++
			m.sig.block = block
			return
		}
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
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// --- fetch ---

func (m *Machine) fetch() {
	// The fetch engine delivers up to FetchWidth fused slots per cycle,
	// chaining across line boundaries as real uop caches do. Streams from
	// the legacy decode path are additionally rate-limited by DecodeWidth
	// inside pushStream.
	budget := m.Cfg.FetchWidth
	for budget > 0 {
		n, blocked := m.pushStream(budget)
		budget -= n
		if blocked || budget == 0 {
			return
		}
		if !m.streamEmpty() {
			return // waiting on readyAt
		}
		// Stream exhausted: handle pending redirects before building more.
		if m.redirectPending {
			if m.resumeFetchAt == 0 || m.cycle < m.resumeFetchAt {
				m.sig.redirectStall = true
				m.sig.redirectSquash = m.redirectIsSquash
				if m.redirectIsSquash {
					m.Stats.SquashCycles++
				} else {
					m.Stats.MispredictCycles++
				}
				return
			}
			m.redirectPending = false
			m.resumeFetchAt = 0
		}
		if m.Oracle.Halted() || m.Oracle.UopCount >= m.Cfg.MaxUops {
			m.Stats.FetchIdleCycles++
			return
		}
		m.buildStream()
		if m.streamEmpty() {
			return // nothing fetchable (halt)
		}
	}
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
			m.Stats.IDQStallCycles++
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
	if line != nil && line.Hot < m.Cfg.UC.HotThreshold {
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

func (m *Machine) sccTick() {
	if m.Unit == nil {
		return
	}
	res, ok := m.Unit.Tick(m.cycle)
	if !ok {
		return
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
	} else if m.Unit.QueueLen() == 0 || !m.Unit.Busy(m.cycle) {
		// Aborted/discarded: unlock whatever we had locked for this job.
		for _, l := range m.locked {
			m.UC.Unopt.Unlock(l.line)
		}
		m.locked = m.locked[:0]
	}
}
