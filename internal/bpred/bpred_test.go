package bpred

import (
	"reflect"
	"testing"
)

func TestTAGELearnsAlwaysTaken(t *testing.T) {
	p := NewTAGE(10, 8)
	pc := uint64(0x1040)
	for i := 0; i < 64; i++ {
		p.Update(pc, true)
	}
	pred := p.Predict(pc)
	if !pred.Taken {
		t.Error("always-taken branch predicted not-taken")
	}
	if pred.Confidence < 6 {
		t.Errorf("confidence = %d, want high", pred.Confidence)
	}
}

func TestTAGELearnsAlwaysNotTaken(t *testing.T) {
	p := NewTAGE(10, 8)
	pc := uint64(0x2000)
	for i := 0; i < 64; i++ {
		p.Update(pc, false)
	}
	if p.Predict(pc).Taken {
		t.Error("never-taken branch predicted taken")
	}
}

func TestTAGELearnsHistoryPattern(t *testing.T) {
	// Alternating T/N is unlearnable by bimodal alone but trivial with
	// global history; TAGE must converge to near-zero mispredictions.
	p := NewTAGE(10, 8)
	pc := uint64(0x3000)
	taken := false
	warm := 2000
	for i := 0; i < warm; i++ {
		p.Update(pc, taken)
		taken = !taken
	}
	miss := 0
	for i := 0; i < 1000; i++ {
		if p.Predict(pc).Taken != taken {
			miss++
		}
		p.Update(pc, taken)
		taken = !taken
	}
	if miss > 50 {
		t.Errorf("alternating pattern missed %d/1000 after warmup", miss)
	}
}

func TestTAGEMispredStats(t *testing.T) {
	p := NewTAGE(10, 8)
	pc := uint64(0x4000)
	for i := 0; i < 100; i++ {
		p.Update(pc, true)
	}
	if p.Lookups != 100 {
		t.Errorf("lookups = %d", p.Lookups)
	}
	if p.Mispreds > 10 {
		t.Errorf("mispreds = %d on a monotone stream", p.Mispreds)
	}
}

func TestTAGEPredictIsReadOnly(t *testing.T) {
	p := NewTAGE(10, 8)
	pc := uint64(0x5000)
	for i := 0; i < 10; i++ {
		p.Update(pc, true)
	}
	before := p.Predict(pc)
	for i := 0; i < 1000; i++ {
		p.Predict(pc) // SCC probes must not perturb state
	}
	after := p.Predict(pc)
	if before != after {
		t.Error("Predict mutated predictor state")
	}
	if p.Lookups != 10 {
		t.Error("Predict must not count as a lookup")
	}
}

func TestBTB(t *testing.T) {
	b := NewBTB(8)
	if _, ok := b.Lookup(0x1000); ok {
		t.Error("empty BTB hit")
	}
	b.Update(0x1000, 0x2000)
	if tgt, ok := b.Lookup(0x1000); !ok || tgt != 0x2000 {
		t.Errorf("BTB lookup = %#x, %v", tgt, ok)
	}
	// Conflicting entry (same index, 2^8 entries) evicts.
	b.Update(0x1000+1<<8, 0x3000)
	if _, ok := b.Lookup(0x1000); ok {
		t.Error("conflicting update should evict")
	}
	if b.Hits != 1 || b.Misses != 2 {
		t.Errorf("stats hits=%d misses=%d", b.Hits, b.Misses)
	}
	// Peek does not disturb stats.
	b.Peek(0x1000 + 1<<8)
	if b.Hits != 1 {
		t.Error("Peek counted as hit")
	}
}

func TestRAS(t *testing.T) {
	r := NewRAS(4)
	if _, ok := r.Pop(); ok {
		t.Error("empty RAS popped a value")
	}
	r.Push(0x100)
	r.Push(0x200)
	if v, ok := r.Peek(); !ok || v != 0x200 {
		t.Errorf("Peek = %#x", v)
	}
	if v, _ := r.Pop(); v != 0x200 {
		t.Errorf("first pop = %#x", v)
	}
	if v, _ := r.Pop(); v != 0x100 {
		t.Errorf("second pop = %#x", v)
	}
	// Overflow wraps (deep recursion overwrites oldest).
	for i := 1; i <= 6; i++ {
		r.Push(uint64(i * 0x10))
	}
	if v, _ := r.Pop(); v != 0x60 {
		t.Errorf("after overflow pop = %#x", v)
	}
}

func TestLSDDetectsStableLoop(t *testing.T) {
	l := NewLSD(16)
	pc := uint64(0x1040)
	// Three trips of a 10-iteration loop: 9 takens then a not-taken each.
	for trip := 0; trip < 3; trip++ {
		for i := 0; i < 9; i++ {
			l.Update(pc, true)
		}
		l.Update(pc, false)
	}
	trip, _, stable := l.LoopInfo(pc)
	if !stable || trip != 9 {
		t.Errorf("LoopInfo = trip %d stable %v, want 9 true", trip, stable)
	}
}

func TestLSDUnstableLoop(t *testing.T) {
	l := NewLSD(16)
	pc := uint64(0x1040)
	for _, n := range []int{3, 7, 2, 9} {
		for i := 0; i < n; i++ {
			l.Update(pc, true)
		}
		l.Update(pc, false)
	}
	if _, _, stable := l.LoopInfo(pc); stable {
		t.Error("irregular trip counts marked stable")
	}
}

func TestLSDCapacity(t *testing.T) {
	l := NewLSD(4)
	for i := 0; i < 20; i++ {
		l.Update(uint64(0x1000+i*8), true)
	}
	if len(l.entries) > 4 {
		t.Errorf("LSD grew to %d entries, cap 4", len(l.entries))
	}
}

// TestLSDFullTableIsDeterministic feeds a four-entry detector six loops
// that never turn stable: the tracked entries must be the same on every
// repeat, not depend on map order.
func TestLSDFullTableIsDeterministic(t *testing.T) {
	feed := func() map[uint64]lsdEntry {
		l := NewLSD(4)
		for round := 0; round < 3; round++ {
			for loop := 0; loop < 6; loop++ {
				pc := uint64(0x1000 + loop*0x40)
				for i := 0; i < 2+round+loop; i++ {
					l.Update(pc, true)
				}
				l.Update(pc, false)
			}
		}
		out := map[uint64]lsdEntry{}
		for pc, e := range l.entries {
			out[pc] = *e
		}
		return out
	}
	first := feed()
	for rep := 1; rep < 50; rep++ {
		if got := feed(); !reflect.DeepEqual(got, first) {
			t.Fatalf("repeat %d tracked %v, first run tracked %v", rep, got, first)
		}
	}
}

func TestUnitPredictDirectJump(t *testing.T) {
	u := NewUnit()
	taken, tgt, conf := u.PredictUop(0, 0x1000, false, 0x2000, false)
	if !taken || tgt != 0x2000 || conf != ConfMax {
		t.Errorf("direct jump: %v %#x %d", taken, tgt, conf)
	}
}

func TestUnitPredictReturnViaRAS(t *testing.T) {
	u := NewUnit()
	u.Ras.Push(0x1234)
	taken, tgt, conf := u.PredictUop(0, 0x1000, false, 0, true)
	if !taken || tgt != 0x1234 || conf != ConfMax {
		t.Errorf("ret: %v %#x %d", taken, tgt, conf)
	}
}

func TestUnitCondBranchNeedsBTBForTarget(t *testing.T) {
	u := NewUnit()
	pc := uint64(0x1040)
	for i := 0; i < 32; i++ {
		u.Dir.Update(pc, true)
	}
	taken, tgt, _ := u.PredictUop(0, pc, true, 0, false)
	if !taken || tgt != 0 {
		t.Errorf("without BTB/target: taken=%v tgt=%#x", taken, tgt)
	}
	taken, tgt, _ = u.PredictUop(0, pc, true, 0x1080, false)
	if !taken || tgt != 0x1080 {
		t.Errorf("with direct target: taken=%v tgt=%#x", taken, tgt)
	}
}

func TestUnitProbeIsReadOnly(t *testing.T) {
	u := NewUnit()
	pc := uint64(0x1040)
	for i := 0; i < 32; i++ {
		u.Dir.Update(pc, true)
	}
	h, m := u.Btb.Hits, u.Btb.Misses
	lk := u.Dir.Lookups
	taken, _, conf := u.Probe(pc, true, 0x1080, false)
	if !taken || conf < 6 {
		t.Errorf("probe: taken=%v conf=%d", taken, conf)
	}
	if u.Btb.Hits != h || u.Btb.Misses != m || u.Dir.Lookups != lk {
		t.Error("Probe perturbed predictor stats")
	}
}

func TestTAGEDistinguishesBranches(t *testing.T) {
	p := NewTAGE(12, 10)
	// Two branches with opposite biases must not destructively alias.
	a, b := uint64(0x1000), uint64(0x1400)
	for i := 0; i < 200; i++ {
		p.Update(a, true)
		p.Update(b, false)
	}
	if !p.Predict(a).Taken || p.Predict(b).Taken {
		t.Error("branches alias destructively")
	}
}
