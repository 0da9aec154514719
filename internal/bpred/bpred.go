// Package bpred implements the front-end branch prediction substrate:
// a TAGE-style conditional direction predictor, a branch target buffer,
// a return address stack, and a loop stream detector.
//
// SCC consumes this package two ways: the fetch engine uses normal
// predict/update flow, and the SCC unit issues read-only Probe calls to
// speculatively identify control invariants (§IV). The paper doubles the
// predictor read-port width so both can read in the same cycle; the energy
// model charges the extra port.
package bpred

// Prediction is the output of a direction probe.
type Prediction struct {
	Taken      bool
	Confidence int // 0..15; saturating, higher = more confident
}

// ConfMax is the maximum direction confidence reported.
const ConfMax = 15

// tageTable is one tagged component of the TAGE predictor.
type tageTable struct {
	histBits uint // geometric history length
	tags     []uint16
	ctr      []int8 // signed 3-bit: -4..3, >=0 means taken
	useful   []uint8
	mask     uint64
}

// TAGE is a lightweight TAGE direction predictor: a bimodal base table plus
// four tagged tables with geometrically increasing history lengths.
type TAGE struct {
	base   []int8 // 2-bit bimodal: -2..1
	mask   uint64
	tables []tageTable
	ghist  uint64

	// Stats.
	Lookups   uint64
	Mispreds  uint64
	allocTick uint8
}

// NewTAGE builds the predictor with 2^baseBits bimodal entries and
// 2^tableBits entries per tagged table.
func NewTAGE(baseBits, tableBits uint) *TAGE {
	t := &TAGE{
		base: make([]int8, 1<<baseBits),
		mask: 1<<baseBits - 1,
	}
	for _, h := range []uint{4, 8, 16, 32} {
		t.tables = append(t.tables, tageTable{
			histBits: h,
			tags:     make([]uint16, 1<<tableBits),
			ctr:      make([]int8, 1<<tableBits),
			useful:   make([]uint8, 1<<tableBits),
			mask:     1<<tableBits - 1,
		})
	}
	return t
}

func (t *TAGE) fold(histBits uint) uint64 {
	h := t.ghist
	if histBits < 64 {
		h &= 1<<histBits - 1
	}
	// Fold into 16 bits.
	return h ^ h>>16 ^ h>>32 ^ h>>48
}

func (tt *tageTable) index(pc uint64, folded uint64) uint64 {
	return (pc ^ pc>>5 ^ folded) & tt.mask
}

func (tt *tageTable) tag(pc uint64, folded uint64) uint16 {
	return uint16((pc>>3)^folded*7) & 0x3ff
}

// lookup returns the provider table index (-1 for bimodal) and entry index.
func (t *TAGE) lookup(pc uint64) (provider int, entry uint64) {
	provider = -1
	for i := len(t.tables) - 1; i >= 0; i-- {
		tt := &t.tables[i]
		folded := t.fold(tt.histBits)
		idx := tt.index(pc, folded)
		if tt.tags[idx] == tt.tag(pc, folded) {
			return i, idx
		}
	}
	return -1, pc & t.mask
}

// Predict returns the direction prediction for the conditional branch at pc.
// It does not modify any state and is safe for SCC probes.
func (t *TAGE) Predict(pc uint64) Prediction {
	prov, idx := t.lookup(pc)
	var ctr int8
	if prov >= 0 {
		ctr = t.tables[prov].ctr[idx]
	} else {
		ctr = t.base[idx]
	}
	taken := ctr >= 0
	// Confidence scales with counter magnitude and provider history length.
	mag := int(ctr)
	if mag < 0 {
		mag = -mag - 1
	}
	conf := 0
	if prov >= 0 {
		conf = (mag + 1) * 4 // 3-bit counters: mag 0..3 -> 4..16
		if conf > ConfMax {
			conf = ConfMax
		}
	} else {
		conf = (mag + 1) * 5 // 2-bit counters: mag 0..1 -> 5..10
	}
	return Prediction{Taken: taken, Confidence: conf}
}

// Update trains the predictor with the resolved outcome and advances the
// global history.
func (t *TAGE) Update(pc uint64, taken bool) {
	t.Lookups++
	prov, idx := t.lookup(pc)
	pred := t.Predict(pc)
	if pred.Taken != taken {
		t.Mispreds++
	}
	bump := func(c int8, up bool, lo, hi int8) int8 {
		if up && c < hi {
			return c + 1
		}
		if !up && c > lo {
			return c - 1
		}
		return c
	}
	if prov >= 0 {
		tt := &t.tables[prov]
		tt.ctr[idx] = bump(tt.ctr[idx], taken, -4, 3)
		if pred.Taken == taken && tt.useful[idx] < 3 {
			tt.useful[idx]++
		}
	} else {
		t.base[idx] = bump(t.base[idx], taken, -2, 1)
	}
	// Allocate a longer-history entry on a misprediction.
	if pred.Taken != taken && prov < len(t.tables)-1 {
		t.allocTick++
		for i := prov + 1; i < len(t.tables); i++ {
			tt := &t.tables[i]
			folded := t.fold(tt.histBits)
			nidx := tt.index(pc, folded)
			if tt.useful[nidx] == 0 || t.allocTick == 0 {
				tt.tags[nidx] = tt.tag(pc, folded)
				if taken {
					tt.ctr[nidx] = 0
				} else {
					tt.ctr[nidx] = -1
				}
				tt.useful[nidx] = 0
				break
			}
			tt.useful[nidx]--
		}
	}
	t.ghist = t.ghist<<1 | b2u(taken)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// BTB is a direct-mapped branch target buffer.
type BTB struct {
	tags    []uint64
	targets []uint64
	mask    uint64
	Hits    uint64
	Misses  uint64
}

// NewBTB builds a BTB with 2^bits entries.
func NewBTB(bits uint) *BTB {
	return &BTB{
		tags:    make([]uint64, 1<<bits),
		targets: make([]uint64, 1<<bits),
		mask:    1<<bits - 1,
	}
}

// Lookup returns the predicted target for the branch at pc.
func (b *BTB) Lookup(pc uint64) (uint64, bool) {
	i := pc & b.mask
	if b.tags[i] == pc && b.targets[i] != 0 {
		b.Hits++
		return b.targets[i], true
	}
	b.Misses++
	return 0, false
}

// Peek is a stat-free lookup for SCC probes.
func (b *BTB) Peek(pc uint64) (uint64, bool) {
	i := pc & b.mask
	if b.tags[i] == pc && b.targets[i] != 0 {
		return b.targets[i], true
	}
	return 0, false
}

// Update records the resolved target of the branch at pc.
func (b *BTB) Update(pc, target uint64) {
	i := pc & b.mask
	b.tags[i] = pc
	b.targets[i] = target
}

// RAS is a fixed-depth return address stack with wrap-around overwrite.
type RAS struct {
	stack []uint64
	top   int
	depth int
}

// NewRAS builds a return address stack with the given depth.
func NewRAS(depth int) *RAS {
	return &RAS{stack: make([]uint64, depth), depth: depth}
}

// Push records a call's return address.
func (r *RAS) Push(addr uint64) {
	r.top = (r.top + 1) % r.depth
	r.stack[r.top] = addr
}

// Pop predicts the target of a return.
func (r *RAS) Pop() (uint64, bool) {
	v := r.stack[r.top]
	if v == 0 {
		return 0, false
	}
	r.stack[r.top] = 0
	r.top = (r.top - 1 + r.depth) % r.depth
	return v, true
}

// Peek returns the top of the stack without popping (SCC probes).
func (r *RAS) Peek() (uint64, bool) {
	v := r.stack[r.top]
	return v, v != 0
}

// LSD is a loop stream detector: it tracks backward conditional branches
// and learns stable trip counts so the front-end (and the SCC unit, §III)
// can identify hot loop bodies.
type LSD struct {
	entries map[uint64]*lsdEntry
	cap     int
}

type lsdEntry struct {
	streak    uint32 // consecutive taken count so far this trip
	lastTrip  uint32 // previous completed trip count
	stable    uint8  // how many times lastTrip repeated (saturating)
	totalSeen uint64
}

// NewLSD builds a loop stream detector tracking the first cap branches
// it sees.
func NewLSD(cap int) *LSD {
	return &LSD{entries: make(map[uint64]*lsdEntry), cap: cap}
}

// Update observes a resolved backward branch outcome.
func (l *LSD) Update(pc uint64, taken bool) {
	e := l.entries[pc]
	if e == nil {
		if len(l.entries) >= l.cap {
			// Full: a new branch goes untracked, so the tracked set,
			// and the snapshot bytes, depend only on the order branches
			// arrive in, never on Go's map order.
			return
		}
		e = &lsdEntry{}
		l.entries[pc] = e
	}
	e.totalSeen++
	if taken {
		e.streak++
		return
	}
	// Loop exit: a trip completed.
	if e.streak == e.lastTrip && e.streak > 0 {
		if e.stable < 7 {
			e.stable++
		}
	} else {
		e.stable = 0
	}
	e.lastTrip = e.streak
	e.streak = 0
}

// LoopInfo reports whether the branch at pc is a detected stable loop, its
// learned trip count, and the current iteration within the trip.
func (l *LSD) LoopInfo(pc uint64) (trip uint32, iter uint32, stable bool) {
	e := l.entries[pc]
	if e == nil {
		return 0, 0, false
	}
	return e.lastTrip, e.streak, e.stable >= 2 && e.lastTrip > 0
}

// Unit bundles the full branch prediction front-end.
type Unit struct {
	Dir *TAGE
	Btb *BTB
	Ras *RAS
	Lsd *LSD
	Itt *ITTAGE
}

// NewUnit builds the default-sized branch prediction unit
// (8K-entry bimodal, 1K-entry tagged tables, 4K-entry BTB, 16-deep RAS,
// 512-entry-per-table ITTAGE for indirect targets).
func NewUnit() *Unit {
	return &Unit{
		Dir: NewTAGE(13, 10),
		Btb: NewBTB(12),
		Ras: NewRAS(16),
		Lsd: NewLSD(64),
		Itt: NewITTAGE(9),
	}
}

// PredictUop predicts the outcome of a branch micro-op: direction,
// target and direction confidence.
func (u *Unit) PredictUop(kind int, pc uint64, condBranch bool, directTarget uint64, isRet bool) (taken bool, target uint64, conf int) {
	_ = kind
	if !condBranch {
		if isRet {
			if t, ok := u.Ras.Peek(); ok {
				return true, t, ConfMax
			}
			if t, ok := u.Btb.Lookup(pc); ok {
				return true, t, ConfMax / 2
			}
			return true, 0, 0
		}
		if directTarget != 0 {
			return true, directTarget, ConfMax
		}
		// Indirect jump: history-indexed target prediction first.
		if t, conf, ok := u.Itt.Predict(pc); ok {
			return true, t, conf
		}
		if t, ok := u.Btb.Lookup(pc); ok {
			return true, t, ConfMax - 3
		}
		return true, 0, 0
	}
	p := u.Dir.Predict(pc)
	if p.Taken {
		if directTarget != 0 {
			return true, directTarget, p.Confidence
		}
		if t, ok := u.Btb.Lookup(pc); ok {
			return true, t, p.Confidence
		}
		return true, 0, 0
	}
	return false, 0, p.Confidence
}

// Probe is the SCC unit's read-only control-invariant query: it returns the
// predicted direction/target and confidence without touching history or
// stats (the second, doubled predictor read port).
func (u *Unit) Probe(pc uint64, condBranch bool, directTarget uint64, isRet bool) (taken bool, target uint64, conf int) {
	if !condBranch {
		if isRet {
			t, ok := u.Ras.Peek()
			if !ok {
				return true, 0, 0
			}
			return true, t, ConfMax
		}
		if directTarget != 0 {
			return true, directTarget, ConfMax
		}
		if t, conf, ok := u.Itt.Predict(pc); ok {
			return true, t, conf
		}
		t, ok := u.Btb.Peek(pc)
		if !ok {
			return true, 0, 0
		}
		return true, t, ConfMax - 3
	}
	p := u.Dir.Predict(pc)
	target = directTarget
	if target == 0 {
		target, _ = u.Btb.Peek(pc)
	}
	return p.Taken, target, p.Confidence
}
