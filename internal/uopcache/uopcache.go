// Package uopcache implements the micro-op cache and the paper's extensions
// to it: separate unoptimized and optimized partitions that co-host multiple
// versions of micro-op sequences, hotness counters with periodic decay
// (applied lazily, see Partition.Advance), lock bits for lines under
// compaction, an extended tag array holding 4-bit saturating confidence
// counters per predicted invariant, and the profitability scoring the fetch
// engine uses to select a stream (§III, §V).
//
// Geometry follows the Icelake-like baseline (Table I): 8-way sets of lines
// holding up to 6 fused micro-ops each; one 32-byte code region may span at
// most 3 ways (18 fused micro-ops). Lines are keyed by their entry PC, the
// address of the first macro-op fetched into the line.
package uopcache

import (
	"fmt"

	"sccsim/internal/isa"
	"sccsim/internal/uop"
)

// UopsPerWay is the number of fused micro-op slots per cache way.
const UopsPerWay = 6

// MaxWaysPerRegion bounds how many ways one 32-byte region may occupy.
const MaxWaysPerRegion = 3

// MaxLineSlots is the largest fused-slot count a single line (spanning up
// to three ways) can hold — the paper's 18 fused micro-ops.
const MaxLineSlots = UopsPerWay * MaxWaysPerRegion

// ConfMax is the top of the 4-bit saturating invariant confidence range.
const ConfMax = 15

// DataInvariant records one speculatively identified data invariant: the
// predicted output value of the prediction-source micro-op at PC/Key.
type DataInvariant struct {
	Key   uint64 // value-predictor key of the prediction source
	PC    uint64 // macro PC of the prediction source
	Value int64  // predicted (invariant) value
	Conf  int    // 4-bit saturating confidence
	// Occ is the dynamic occurrence ordinal of Key within the compacted
	// stream's original walk: a wrapped loop body revisits the same
	// static micro-op, and each visit validates against its own
	// invariant.
	Occ int
	// ConfAtPlant is the predictor confidence observed when the invariant
	// was planted, frozen for squash forensics (Conf itself moves with
	// Reward/Penalize).
	ConfAtPlant int
	// SrcKind is the uop.Kind code of the prediction-source micro-op
	// (load vs ALU vs FP — which instruction class the invariant covers).
	SrcKind uint8
}

// CtrlInvariant records one speculatively identified control invariant:
// the predicted direction/target of an unfoldable branch in the stream.
type CtrlInvariant struct {
	PC     uint64
	Taken  bool
	Target uint64
	Conf   int
	// ConfAtPlant freezes the branch-predictor confidence observed at
	// planting time (squash forensics; Conf moves with Reward/Penalize).
	ConfAtPlant int
}

// LiveOut is a register value produced by an eliminated micro-op that must
// be materialized at rename time (inlined constants, §IV).
type LiveOut struct {
	Reg   isa.Reg
	Value int64
}

// CompactMeta is the extended tag-array metadata attached to lines in the
// optimized partition.
type CompactMeta struct {
	DataInv  []DataInvariant
	CtrlInv  []CtrlInvariant
	LiveOuts []LiveOut
	// OrigSlots is the fused-slot count of the unoptimized sequence this
	// line was compacted from; Shrinkage = OrigSlots - line slots is the
	// compaction potential used in profitability scoring.
	OrigSlots int
	// OrigUops is the micro-op count (not slots) of the original walked
	// sequence; the pipeline advances the functional oracle by exactly
	// this many micro-ops when streaming the line.
	OrigUops int
	// Per-category elimination counts for dynamic attribution
	// (Figure 6's per-optimization breakdown).
	ElimMove   int
	ElimFold   int
	ElimBranch int
	ElimDead   int
	Propagated int
	// EndPC is the fall-through macro PC after the last uop of the
	// original (uncompacted) sequence, where fetch resumes.
	EndPC uint64
	// Squashes counts invariant-violation squashes charged to this line.
	Squashes uint64
	// Streams counts times this line was selected for streaming.
	Streams uint64
	// JobID identifies the compaction job that minted this line (stamped
	// by the SCC unit) — the attribution key the optimization journal
	// uses to tie streaming verdicts and squashes back to the planting
	// job's remarks.
	JobID uint64
}

// Shrinkage returns the compaction potential in fused slots.
func (m *CompactMeta) Shrinkage(lineSlots int) int { return m.OrigSlots - lineSlots }

// SumConf returns the sum of all invariant confidence counters
// (the first term of the profitability score, §III).
func (m *CompactMeta) SumConf() int {
	s := 0
	for i := range m.DataInv {
		s += m.DataInv[i].Conf
	}
	for i := range m.CtrlInv {
		s += m.CtrlInv[i].Conf
	}
	return s
}

// MinConf returns the smallest invariant confidence (what the streaming
// threshold is checked against).
func (m *CompactMeta) MinConf() int {
	mn := ConfMax
	for i := range m.DataInv {
		if m.DataInv[i].Conf < mn {
			mn = m.DataInv[i].Conf
		}
	}
	for i := range m.CtrlInv {
		if m.CtrlInv[i].Conf < mn {
			mn = m.CtrlInv[i].Conf
		}
	}
	return mn
}

// Reward bumps every invariant confidence after a fully validated stream.
func (m *CompactMeta) Reward() {
	for i := range m.DataInv {
		if m.DataInv[i].Conf < ConfMax {
			m.DataInv[i].Conf++
		}
	}
	for i := range m.CtrlInv {
		if m.CtrlInv[i].Conf < ConfMax {
			m.CtrlInv[i].Conf++
		}
	}
}

// Penalize decays invariant confidences after a squash; the offending
// invariant (by index, data first then control) is hit hardest.
func (m *CompactMeta) Penalize(offender int) {
	dec := func(c int, by int) int {
		c -= by
		if c < 0 {
			return 0
		}
		return c
	}
	idx := 0
	for i := range m.DataInv {
		if idx == offender {
			m.DataInv[i].Conf = dec(m.DataInv[i].Conf, 6)
		} else {
			m.DataInv[i].Conf = dec(m.DataInv[i].Conf, 1)
		}
		idx++
	}
	for i := range m.CtrlInv {
		if idx == offender {
			m.CtrlInv[i].Conf = dec(m.CtrlInv[i].Conf, 6)
		} else {
			m.CtrlInv[i].Conf = dec(m.CtrlInv[i].Conf, 1)
		}
		idx++
	}
	m.Squashes++
}

// Line is one micro-op cache line (possibly spanning multiple ways).
// Meta is nil for unoptimized lines.
type Line struct {
	EntryPC uint64
	Uops    []uop.UOp
	Slots   int // fused slots
	Ways    int // way-slots consumed: ceil(Slots/UopsPerWay)
	Locked  bool
	Meta    *CompactMeta

	// hot is the hotness counter as of decay epoch epoch (incremented on
	// access, decayed once per epoch); Partition.Hot reads it up to date.
	hot       int
	epoch     uint64
	lastTouch uint64
}

// NewLine builds a line from a uop stream, computing slot and way counts.
func NewLine(entryPC uint64, uops []uop.UOp, meta *CompactMeta) *Line {
	slots := uop.SlotCount(uops)
	ways := (slots + UopsPerWay - 1) / UopsPerWay
	if ways == 0 {
		ways = 1
	}
	return &Line{EntryPC: entryPC, Uops: uops, Slots: slots, Ways: ways, Meta: meta}
}

// String summarizes the line for debug output.
func (l *Line) String() string {
	kind := "unopt"
	if l.Meta != nil {
		kind = fmt.Sprintf("opt(shrink=%d,conf=%d)", l.Meta.Shrinkage(l.Slots), l.Meta.SumConf())
	}
	return fmt.Sprintf("line@%#x %s slots=%d ways=%d", l.EntryPC, kind, l.Slots, l.Ways)
}

// Stats counts partition activity.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Insertions uint64
	Evictions  uint64
	SlotsRead  uint64
}

// Partition is one micro-op cache partition.
type Partition struct {
	NumSets int
	Ways    int
	// DecayPeriod is the hotness-decay interval in cycles (§III: 3 for the
	// optimized partition, 28 for the unoptimized one).
	DecayPeriod int

	sets     [][]*Line
	touch    uint64
	decayAcc int    // cycles since the last decay epoch began
	epoch    uint64 // decay epochs elapsed since New or RestoreSnapshot
	Stats    Stats
}

// NewPartition builds a partition with numSets sets of ways way-slots.
func NewPartition(numSets, ways, decayPeriod int) *Partition {
	p := &Partition{NumSets: numSets, Ways: ways, DecayPeriod: decayPeriod}
	p.sets = make([][]*Line, numSets)
	return p
}

// CapacityUops returns the partition's capacity in fused micro-op slots.
func (p *Partition) CapacityUops() int { return p.NumSets * p.Ways * UopsPerWay }

func (p *Partition) setIndex(pc uint64) int {
	return int((pc >> 5) % uint64(p.NumSets))
}

// Hot returns l's hotness at the current decay epoch: the stored count
// less one per epoch since it was stored, saturating at zero.
func (p *Partition) Hot(l *Line) int {
	if d := p.epoch - l.epoch; d < uint64(l.hot) {
		return l.hot - int(d)
	}
	return 0
}

// materialize brings l's stored hotness up to the current epoch.
func (p *Partition) materialize(l *Line) {
	l.hot = p.Hot(l)
	l.epoch = p.epoch
}

// access records one access to l: LRU touch plus a hotness increment.
func (p *Partition) access(l *Line) {
	p.touch++
	l.lastTouch = p.touch
	p.materialize(l)
	l.hot++
}

// Lookup returns the first line whose entry PC matches, updating hotness
// and hit/miss stats.
func (p *Partition) Lookup(pc uint64) *Line {
	set := p.sets[p.setIndex(pc)]
	for _, l := range set {
		if l.EntryPC == pc {
			p.access(l)
			p.Stats.Hits++
			p.Stats.SlotsRead += uint64(l.Slots)
			return l
		}
	}
	p.Stats.Misses++
	return nil
}

// LookupAll returns every line with the given entry PC (the optimized
// partition may co-host multiple compacted versions). Hotness is bumped on
// each; a single hit/miss is counted.
func (p *Partition) LookupAll(pc uint64, dst []*Line) []*Line {
	set := p.sets[p.setIndex(pc)]
	for _, l := range set {
		if l.EntryPC == pc {
			p.access(l)
			dst = append(dst, l)
		}
	}
	if len(dst) > 0 {
		p.Stats.Hits++
	} else {
		p.Stats.Misses++
	}
	return dst
}

// RegionResident reports whether any line from the 32-byte code region
// containing pc is resident — the SCC unit's residency check (compaction
// stops on a micro-op cache miss, §III). Stat-free.
func (p *Partition) RegionResident(pc uint64) bool {
	region := pc &^ 31
	for _, l := range p.sets[p.setIndex(pc)] {
		if l.EntryPC&^31 == region {
			return true
		}
	}
	return false
}

// Peek finds a line without perturbing hotness or stats (SCC unit reads).
func (p *Partition) Peek(pc uint64) *Line {
	for _, l := range p.sets[p.setIndex(pc)] {
		if l.EntryPC == pc {
			return l
		}
	}
	return nil
}

func (p *Partition) usedWays(set []*Line) int {
	n := 0
	for _, l := range set {
		n += l.Ways
	}
	return n
}

// Insert places a line, evicting least-recently-touched unlocked lines as
// needed. It returns false (and does not insert) when locked lines prevent
// making room or the line is too large for the associativity. The line's
// hotness starts decaying from the current epoch.
func (p *Partition) Insert(l *Line) bool {
	if l.Ways > p.Ways {
		return false
	}
	si := p.setIndex(l.EntryPC)
	set := p.sets[si]
	// Replace any existing identical-entry line of the same kind
	// (unopt refresh) to avoid duplicates; optimized versions co-exist
	// unless they have identical invariants.
	for i, old := range set {
		if old.EntryPC == l.EntryPC && sameVersion(old, l) && !old.Locked {
			p.materialize(old)
			set = append(set[:i], set[i+1:]...)
			p.Stats.Evictions++
			break
		}
	}
	for p.usedWays(set)+l.Ways > p.Ways {
		victim := -1
		var oldest uint64 = ^uint64(0)
		for i, cand := range set {
			if cand.Locked {
				continue
			}
			if cand.lastTouch <= oldest {
				oldest = cand.lastTouch
				victim = i
			}
		}
		if victim < 0 {
			p.sets[si] = set
			return false
		}
		p.materialize(set[victim])
		set = append(set[:victim], set[victim+1:]...)
		p.Stats.Evictions++
	}
	p.touch++
	l.lastTouch = p.touch
	l.epoch = p.epoch
	set = append(set, l)
	p.sets[si] = set
	p.Stats.Insertions++
	return true
}

// sameVersion reports whether two lines are the same logical version:
// both unoptimized, or optimized with identical invariant sets.
func sameVersion(a, b *Line) bool {
	if (a.Meta == nil) != (b.Meta == nil) {
		return false
	}
	if a.Meta == nil {
		return true
	}
	if len(a.Meta.DataInv) != len(b.Meta.DataInv) || len(a.Meta.CtrlInv) != len(b.Meta.CtrlInv) {
		return false
	}
	for i := range a.Meta.DataInv {
		if a.Meta.DataInv[i].Key != b.Meta.DataInv[i].Key ||
			a.Meta.DataInv[i].Value != b.Meta.DataInv[i].Value {
			return false
		}
	}
	for i := range a.Meta.CtrlInv {
		if a.Meta.CtrlInv[i].PC != b.Meta.CtrlInv[i].PC ||
			a.Meta.CtrlInv[i].Taken != b.Meta.CtrlInv[i].Taken {
			return false
		}
	}
	return true
}

// Remove drops a specific line (stale-stream phase-out).
func (p *Partition) Remove(target *Line) bool {
	si := p.setIndex(target.EntryPC)
	set := p.sets[si]
	for i, l := range set {
		if l == target {
			p.materialize(l)
			p.sets[si] = append(set[:i], set[i+1:]...)
			p.Stats.Evictions++
			return true
		}
	}
	return false
}

// Lock pins a line against eviction while the SCC unit reads it (§III's
// per-line lock bit). At most MaxWaysPerRegion ways may be locked at once;
// Lock reports whether the lock was granted.
func (p *Partition) Lock(l *Line) bool {
	locked := 0
	for _, set := range p.sets {
		for _, x := range set {
			if x.Locked {
				locked += x.Ways
			}
		}
	}
	if locked+l.Ways > MaxWaysPerRegion {
		return false
	}
	l.Locked = true
	return true
}

// Unlock clears a line's lock bit.
func (p *Partition) Unlock(l *Line) { l.Locked = false }

// Advance moves the hotness-decay clock forward by n cycles. Every
// DecayPeriod-th cycle starts a new decay epoch, which lowers every
// resident line's hotness by one (saturating at zero). Lines are not
// walked: Hot subtracts the epochs a line has not yet seen, and
// accesses, evictions and Lines bring the stored count up to date.
func (p *Partition) Advance(n int) {
	if p.DecayPeriod <= 0 {
		return
	}
	p.decayAcc += n
	if p.decayAcc < p.DecayPeriod {
		return
	}
	p.epoch += uint64(p.decayAcc / p.DecayPeriod)
	p.decayAcc %= p.DecayPeriod
}

// Lines returns all resident lines, their hotness brought up to date
// (test/diagnostic use).
func (p *Partition) Lines() []*Line {
	var out []*Line
	for _, set := range p.sets {
		for _, l := range set {
			p.materialize(l)
		}
		out = append(out, set...)
	}
	return out
}

// Config sizes the two-partition micro-op cache.
type Config struct {
	UnoptSets, UnoptWays int
	OptSets, OptWays     int
	UnoptDecay, OptDecay int // hotness decay periods in cycles
	// HotThreshold is the line hotness at which a compaction request is
	// enqueued (§III).
	HotThreshold int
	// StreamConfThreshold is the minimum per-invariant confidence for an
	// optimized line to be streamed (§V).
	StreamConfThreshold int
	// StreamHotThreshold is the minimum hotness for an optimized line to
	// be streamed.
	StreamHotThreshold int
	// MinShrinkage is the compaction potential floor for committing and
	// streaming an optimized line.
	MinShrinkage int
	// SquashGate phases out misbehaving streams (§V: streams whose
	// mispredictions cross a dynamically identified threshold are
	// penalized and eventually phased out): a line with at least two
	// squashes stops streaming once squashes*SquashGate > streams,
	// i.e. its violation rate exceeds 1/SquashGate. 0 disables the gate
	// (the profitability-analysis ablation).
	SquashGate int
}

// DefaultConfig matches the artifact's SCC run options: a 24-set 8-way
// unoptimized partition plus a 24-set 4-way optimized partition, decay
// periods 28/3 cycles, and a streaming confidence threshold of 5.
func DefaultConfig() Config {
	return Config{
		UnoptSets: 24, UnoptWays: 8,
		OptSets: 24, OptWays: 4,
		UnoptDecay: 28, OptDecay: 3,
		HotThreshold:        4,
		StreamConfThreshold: 5,
		StreamHotThreshold:  1,
		MinShrinkage:        1,
		SquashGate:          20,
	}
}

// BaselineConfig is the unpartitioned Table I micro-op cache
// (48 sets x 8 ways x 6 uops = 2304 micro-ops) with no optimized partition.
func BaselineConfig() Config {
	return Config{
		UnoptSets: 48, UnoptWays: 8,
		OptSets: 0, OptWays: 0,
		UnoptDecay:   28,
		HotThreshold: 4,
	}
}

// UopCache is the two-partition micro-op cache.
type UopCache struct {
	Cfg   Config
	Unopt *Partition
	Opt   *Partition // nil when OptSets == 0
}

// New builds the cache from a configuration.
func New(cfg Config) *UopCache {
	u := &UopCache{Cfg: cfg, Unopt: NewPartition(cfg.UnoptSets, cfg.UnoptWays, cfg.UnoptDecay)}
	if cfg.OptSets > 0 {
		u.Opt = NewPartition(cfg.OptSets, cfg.OptWays, cfg.OptDecay)
	}
	return u
}

// Advance moves both partitions' decay clocks forward by n cycles.
func (u *UopCache) Advance(n int) {
	u.Unopt.Advance(n)
	if u.Opt != nil {
		u.Opt.Advance(n)
	}
}

// Selection is the fetch engine's streaming decision.
type Selection struct {
	Line    *Line
	FromOpt bool
	// Score is the profitability score of the chosen optimized line
	// (sum of invariant confidences + shrinkage, §III).
	Score int
	// Candidates counts the optimized versions considered for this fetch;
	// GateTrips counts those the squash gate phased out (§V). Both are
	// journal/diagnostic outputs and never feed back into the decision.
	Candidates int
	GateTrips  int
}

// Select implements the profitability analysis unit (§V): both partitions
// are probed with the fetch PC; among optimized candidates that pass the
// confidence, hotness, shrinkage and current-predictor-state checks, the
// highest-scoring line wins; otherwise the unoptimized line is returned.
//
// vpMatches reports whether a stored data invariant still matches the
// current state of the value predictor (nil disables the check).
func (u *UopCache) Select(pc uint64, scratch []*Line, vpMatches func(DataInvariant) bool) (Selection, []*Line) {
	var unopt *Line
	if u.Opt == nil {
		unopt = u.Unopt.Lookup(pc)
		return Selection{Line: unopt}, scratch
	}
	unopt = u.Unopt.Lookup(pc)
	scratch = scratch[:0]
	scratch = u.Opt.LookupAll(pc, scratch)

	var best *Line
	bestScore := -1
	candidates, gateTrips := 0, 0
	for _, cand := range scratch {
		m := cand.Meta
		if m == nil {
			continue
		}
		candidates++
		if m.MinConf() < u.Cfg.StreamConfThreshold {
			continue
		}
		if u.Opt.Hot(cand) < u.Cfg.StreamHotThreshold {
			continue
		}
		if m.Shrinkage(cand.Slots) < u.Cfg.MinShrinkage {
			continue
		}
		if u.Cfg.SquashGate > 0 && m.Squashes >= 2 &&
			m.Squashes*uint64(u.Cfg.SquashGate) > m.Streams {
			gateTrips++
			continue // misprediction rate crossed the phase-out threshold
		}
		if vpMatches != nil {
			ok := true
			for i := range m.DataInv {
				if !vpMatches(m.DataInv[i]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
		}
		score := m.SumConf() + m.Shrinkage(cand.Slots)
		if score > bestScore {
			bestScore = score
			best = cand
		}
	}
	if best != nil {
		best.Meta.Streams++
		return Selection{Line: best, FromOpt: true, Score: bestScore,
			Candidates: candidates, GateTrips: gateTrips}, scratch
	}
	return Selection{Line: unopt, Candidates: candidates, GateTrips: gateTrips}, scratch
}
