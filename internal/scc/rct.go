// Package scc implements the paper's primary contribution: the speculative
// code compaction unit. The unit is a front-end structure consisting of a
// register context table (RCT) that tracks speculatively identified live
// values, a simple integer ALU restricted to arithmetic/logic/shift
// operations, a compaction request queue, and an 18-micro-op write buffer.
//
// Given a hot micro-op sequence resident in the micro-op cache, the unit
// walks it once, in program order, one micro-op per cycle, applying:
//
//   - speculative data invariant identification (value-predictor probes),
//   - speculative constant folding (dead-code elimination via the ALU),
//   - speculative constant propagation (register→immediate rewrites),
//   - speculative move elimination (register-immediate moves),
//   - speculative branch folding and control invariant identification,
//   - live-out inlining for registers defined by eliminated micro-ops.
//
// The result is a compacted line committed to the optimized micro-op cache
// partition, tagged with up to four data invariants and two control
// invariants, each guarded by a 4-bit saturating confidence counter (§IV).
package scc

import (
	"math"

	"sccsim/internal/isa"
)

// rctEntry is one register context table slot.
type rctEntry struct {
	value int64
	valid bool
	// fromElim marks values whose defining micro-op was eliminated from
	// the stream; these must be materialized as live-outs (§IV).
	fromElim bool
}

// RCT is the SCC unit's register context table: one slot per integer
// architectural register plus the condition-code register and the
// micro-architectural temporary. FP registers are excluded in the paper's
// design — the front-end ALU forgoes floating point (§III) — but the
// future-work extension (Config.EnableFPFold) widens the table to track
// them as raw bit patterns.
type RCT struct {
	entries [34]rctEntry
	// TrackFP widens the table to the floating-point file (the paper's
	// future-work extension).
	TrackFP bool
	// Reads/Writes count accesses for the energy model.
	Reads  uint64
	Writes uint64
}

// tracked reports whether the RCT has a slot for r.
func (t *RCT) tracked(r isa.Reg) bool {
	if r.IsFP() {
		return t.TrackFP
	}
	return r.IsInt() || r == isa.RegCC || r == isa.RegTmp
}

// Get returns the speculatively known value of r, if any.
func (t *RCT) Get(r isa.Reg) (int64, bool) {
	if !t.tracked(r) {
		return 0, false
	}
	t.Reads++
	e := t.entries[r]
	return e.value, e.valid
}

// Set records a speculatively known value for r. fromElim marks values that
// must later be inlined as live-outs because their producer was eliminated.
func (t *RCT) Set(r isa.Reg, v int64, fromElim bool) {
	if !t.tracked(r) {
		return
	}
	t.Writes++
	t.entries[r] = rctEntry{value: v, valid: true, fromElim: fromElim}
}

// Invalidate forgets r (its producer was kept but its value is unknown).
func (t *RCT) Invalidate(r isa.Reg) {
	if !t.tracked(r) {
		return
	}
	t.Writes++
	t.entries[r] = rctEntry{}
}

// LiveOuts returns the registers whose values were produced by eliminated
// micro-ops and therefore need rename-time inlining. The micro-architectural
// temporary is excluded: it is dead outside its macro-op.
func (t *RCT) LiveOuts() []LiveOutValue {
	var out []LiveOutValue
	for r := 0; r < len(t.entries); r++ {
		reg := isa.Reg(r)
		if reg == isa.RegTmp {
			continue
		}
		if e := t.entries[r]; e.valid && e.fromElim {
			out = append(out, LiveOutValue{Reg: reg, Value: e.value})
		}
	}
	return out
}

// Reset clears the table for a new compaction job.
func (t *RCT) Reset() {
	for i := range t.entries {
		t.entries[i] = rctEntry{}
	}
}

// LiveOutValue pairs a register with its speculatively folded value.
type LiveOutValue struct {
	Reg   isa.Reg
	Value int64
}

// FitsWidth reports whether v is representable as a signed width-bit
// constant. The constant-width restriction models the cost of inlining
// live-outs through physical-register-inlining-style rename structures
// (§VII-C, Figure 11); width 64 means unrestricted.
func FitsWidth(v int64, width int) bool {
	if width >= 64 {
		return true
	}
	lim := int64(1) << (width - 1)
	return v >= -lim && v < lim
}

// EvalFrontEndALU evaluates fn on the SCC unit's restricted front-end ALU.
// It returns ok=false for operations outside the repertoire (multiply,
// divide, floating point), which the unit must leave untouched (§III).
func EvalFrontEndALU(fn isa.AluFn, a, b int64) (int64, bool) {
	if !fn.IsSimple() {
		return 0, false
	}
	return isa.EvalAlu(fn, a, b), true
}

// EvalFrontEndFP evaluates a floating-point function over raw float64 bit
// patterns — the future-work extension's wider ALU (Config.EnableFPFold).
func EvalFrontEndFP(fn isa.AluFn, a, b int64) (int64, bool) {
	fa := math.Float64frombits(uint64(a))
	fb := math.Float64frombits(uint64(b))
	var v float64
	switch fn {
	case isa.FnAdd:
		v = fa + fb
	case isa.FnSub:
		v = fa - fb
	case isa.FnMul:
		v = fa * fb
	case isa.FnDiv:
		if fb == 0 {
			v = 0
		} else {
			v = fa / fb
		}
	case isa.FnCvtIF:
		v = float64(a)
	case isa.FnCvtFI:
		return int64(fa), true
	default:
		return 0, false
	}
	return int64(math.Float64bits(v)), true
}
