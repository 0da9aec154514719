package pipeline

import (
	"math"
	"math/rand"
	"testing"

	"sccsim/internal/cache"
	"sccsim/internal/isa"
	"sccsim/internal/uop"
)

func newTestBackend() (*backend, *Config) {
	cfg := Icelake()
	h := cache.NewHierarchy(cfg.Hier)
	return newBackend(&cfg, h), &cfg
}

func TestFUPoolCapacityPerCycle(t *testing.T) {
	p := newFUPool(4, 1, true)
	// Five ops ready at cycle 10: the fifth slips to cycle 11.
	var starts []uint64
	for i := 0; i < 5; i++ {
		s, c := p.issue(10, 10)
		if c != s+1 {
			t.Errorf("complete = %d, want start+1", c)
		}
		starts = append(starts, s)
	}
	at10 := 0
	for _, s := range starts {
		if s == 10 {
			at10++
		}
	}
	if at10 != 4 || starts[4] != 11 {
		t.Errorf("starts = %v, want four at 10 and one at 11", starts)
	}
}

func TestFUPoolFutureReadyDoesNotBlockPresent(t *testing.T) {
	// The regression behind the exchange2 flat-speedup bug: an op whose
	// operands are ready far in the future must not occupy a unit now.
	p := newFUPool(1, 1, true)
	if s, _ := p.issue(1000, 1); s != 1000 {
		t.Fatalf("future op start = %d", s)
	}
	// An op ready NOW must still issue immediately.
	if s, _ := p.issue(5, 1); s != 5 {
		t.Errorf("present op start = %d, want 5 (unit wrongly reserved)", s)
	}
	// And the future cycle is genuinely occupied.
	if s, _ := p.issue(1000, 1); s != 1001 {
		t.Errorf("second future op start = %d, want 1001", s)
	}
}

func TestFUPoolRingGrowsOnLiveCollision(t *testing.T) {
	// Two live reservations whose cycles alias in the initial ring must
	// both survive: the ring grows instead of clobbering either.
	p := newFUPool(1, 1, true)
	size := uint64(len(p.count))
	if s, _ := p.issue(1, 1); s != 1 {
		t.Fatal("first claim misplaced")
	}
	if s, _ := p.issue(1+size, 1); s != 1+size {
		t.Fatalf("aliasing claim start = %d, want %d", s, 1+size)
	}
	if uint64(len(p.count)) <= size {
		t.Fatalf("ring did not grow on live collision (size %d)", len(p.count))
	}
	// Both cycles are still occupied after the growth.
	if s, _ := p.issue(1, 1); s != 2 {
		t.Errorf("cycle-1 reservation lost across growth (start %d)", s)
	}
	if s, _ := p.issue(1+size, 1); s != 2+size {
		t.Errorf("cycle-%d reservation lost across growth (start %d)", 1+size, s)
	}
}

func TestFUPoolUnpipelinedOccupancy(t *testing.T) {
	p := newFUPool(1, 10, false)
	s1, c1 := p.issue(0, 0)
	if s1 != 0 || c1 != 10 {
		t.Fatalf("first: %d..%d", s1, c1)
	}
	// Second divide may not start until the first completes.
	s2, _ := p.issue(0, 0)
	if s2 < 10 {
		t.Errorf("unpipelined overlap: second start = %d", s2)
	}
}

func TestFUPoolThroughputProperty(t *testing.T) {
	// Property: per-cycle issue count never exceeds unit count under
	// random traffic.
	rng := rand.New(rand.NewSource(31))
	p := newFUPool(3, 2, true)
	perCycle := map[uint64]int{}
	for i := 0; i < 5000; i++ {
		ready := uint64(rng.Intn(2000))
		s, _ := p.issue(ready, 0)
		if s < ready {
			t.Fatal("issued before ready")
		}
		perCycle[s]++
	}
	for c, n := range perCycle {
		if n > 3 {
			t.Fatalf("cycle %d issued %d ops on 3 units", c, n)
		}
	}
}

func TestCycleCounterDrain(t *testing.T) {
	q := newCycleCounter()
	for _, v := range []uint64{5, 1, 9, 3, 7} {
		q.push(v)
	}
	q.drain(4)
	if q.Len() != 3 {
		t.Errorf("after drain(4): %d entries, want 3", q.Len())
	}
	q.drain(100)
	if q.Len() != 0 {
		t.Error("drain(100) should empty the counter")
	}
}

func TestCycleCounterMatchesMultiset(t *testing.T) {
	// Property: under monotone drain clocks and random pushes (including
	// far-future cycles that force ring growth, and already-passed or
	// current cycles that stay live until the next drain), Len and
	// nextRelease match a reference multiset model at every step. An
	// entry leaves at the first drain whose clock has reached its cycle,
	// so the model's next release is its earliest cycle, raised to the
	// drain clock.
	rng := rand.New(rand.NewSource(7))
	q := newCycleCounter()
	ref := map[uint64]int{}
	refLen := 0
	now := uint64(0)
	refNext := func() uint64 {
		next := uint64(math.MaxUint64)
		for c := range ref {
			if c < now {
				c = now
			}
			if c < next {
				next = c
			}
		}
		return next
	}
	for i := 0; i < 30000; i++ {
		switch rng.Intn(3) {
		case 0, 1:
			c := now + uint64(rng.Intn(2000))
			if rng.Intn(20) == 0 {
				c = now + uint64(rng.Intn(1<<14)) // outgrow the ring
			}
			switch {
			case rng.Intn(10) == 0 && now > 3:
				c = now - 3 // already-passed cycle
			case rng.Intn(10) == 0:
				c = now // the current cycle, which the last drain passed
			}
			q.push(c)
			ref[c]++
			refLen++
		default:
			now += uint64(rng.Intn(5))
			q.drain(now)
			for c, n := range ref {
				if c <= now {
					refLen -= n
					delete(ref, c)
				}
			}
		}
		if q.Len() != refLen {
			t.Fatalf("step %d: Len = %d, want %d", i, q.Len(), refLen)
		}
		if got, want := q.nextRelease(), refNext(); got != want {
			t.Fatalf("step %d: nextRelease = %d, want %d", i, got, want)
		}
	}
}

func TestBackendRegisterDependencies(t *testing.T) {
	be, _ := newTestBackend()
	var st Stats
	// A load at cycle 1 (L1 hit: 5 cycles), then a dependent add.
	ld := uop.UOp{Kind: uop.KLoad, Dst: isa.R1, Src1: isa.R2, Src2: isa.RegNone}
	cLd := be.dispatch(&ld, 1, 0x100000, false, &st)
	if cLd < 6 {
		t.Fatalf("load completes at %d, want >= 6", cLd)
	}
	add := uop.UOp{Kind: uop.KAlu, Fn: isa.FnAdd, Dst: isa.R3, Src1: isa.R1, Src2: isa.R1}
	cAdd := be.dispatch(&add, 2, 0, false, &st)
	if cAdd != cLd+1 {
		t.Errorf("dependent add completes at %d, want load+1 = %d", cAdd, cLd+1)
	}
	// An independent add issues immediately.
	ind := uop.UOp{Kind: uop.KAlu, Fn: isa.FnAdd, Dst: isa.R4, Src1: isa.R5, Src2: isa.R6}
	cInd := be.dispatch(&ind, 3, 0, false, &st)
	if cInd != 4 {
		t.Errorf("independent add completes at %d, want 4", cInd)
	}
}

func TestBackendImmediateFormSkipsDependency(t *testing.T) {
	be, _ := newTestBackend()
	var st Stats
	slow := uop.UOp{Kind: uop.KAlu, Fn: isa.FnMul, Dst: isa.R1, Src1: isa.R2, Src2: isa.R3}
	be.dispatch(&slow, 1, 0, false, &st)
	// Constant-propagated consumer: Src1 is an immediate, so it must not
	// wait for r1 — this is where SCC's propagation buys ILP.
	fast := uop.UOp{Kind: uop.KAlu, Fn: isa.FnAdd, Dst: isa.R4,
		Src1: isa.R1, Src1Imm: true, Imm1: 7, Src2: isa.R5}
	c := be.dispatch(&fast, 2, 0, false, &st)
	if c != 3 {
		t.Errorf("imm-form consumer completes at %d, want 3", c)
	}
}

func TestBackendMoveEliminationZeroLatency(t *testing.T) {
	be, _ := newTestBackend()
	var st Stats
	mv := uop.UOp{Kind: uop.KMov, Dst: isa.R1, Src1: isa.R2, Src2: isa.RegNone}
	c := be.dispatch(&mv, 5, 0, false, &st)
	if c != 5 {
		t.Errorf("eliminated move completes at %d, want dispatch cycle", c)
	}
	if st.RenameMoveElim != 1 {
		t.Error("rename move elimination not counted")
	}
}

func TestBackendStoreToLoadForwarding(t *testing.T) {
	be, _ := newTestBackend()
	var st Stats
	addr := uint64(0x200000)
	// Producer chain makes the store's data late.
	mul := uop.UOp{Kind: uop.KAlu, Fn: isa.FnDiv, Dst: isa.R1, Src1: isa.R2, Src2: isa.R3}
	cMul := be.dispatch(&mul, 1, 0, false, &st)
	store := uop.UOp{Kind: uop.KStore, Dst: isa.RegNone, Src1: isa.R4, Src2: isa.R1}
	cSt := be.dispatch(&store, 2, addr, false, &st)
	if cSt <= cMul {
		t.Fatalf("store completes at %d before its data at %d", cSt, cMul)
	}
	ld := uop.UOp{Kind: uop.KLoad, Dst: isa.R5, Src1: isa.R6, Src2: isa.RegNone}
	cLd := be.dispatch(&ld, 3, addr, false, &st)
	if cLd < cSt {
		t.Errorf("forwarded load completes at %d, before the store's data (%d)", cLd, cSt)
	}
}

func TestBackendDoomedUopsDoNotPollute(t *testing.T) {
	be, _ := newTestBackend()
	var st Stats
	doomed := uop.UOp{Kind: uop.KAlu, Fn: isa.FnDiv, Dst: isa.R1, Src1: isa.R2, Src2: isa.R3}
	be.dispatch(&doomed, 1, 0, true, &st)
	// A later real consumer of r1 must not observe the doomed writer's
	// completion time.
	use := uop.UOp{Kind: uop.KAlu, Fn: isa.FnAdd, Dst: isa.R4, Src1: isa.R1, Src2: isa.R5}
	c := be.dispatch(&use, 2, 0, false, &st)
	if c != 3 {
		t.Errorf("consumer completes at %d — doomed uop polluted regReady", c)
	}
	// Doomed stores must not enter the forwarding table.
	dst := uop.UOp{Kind: uop.KStore, Dst: isa.RegNone, Src1: isa.R6, Src2: isa.R7}
	be.dispatch(&dst, 3, 0x300000, true, &st)
	if _, ok := be.storeReady.get(0x300000); ok {
		t.Error("doomed store entered the forwarding table")
	}
}

func TestBackendCommitInOrder(t *testing.T) {
	be, _ := newTestBackend()
	var st Stats
	// Three uops completing out of order: 10, 3, 5.
	be.pushROB(10, false, true, true, nil)
	be.pushROB(3, false, true, true, nil)
	be.pushROB(5, false, true, true, nil)
	if n, _ := be.commit(4, &st); n != 0 {
		t.Errorf("committed %d at cycle 4; head completes at 10", n)
	}
	if n, _ := be.commit(10, &st); n != 3 {
		t.Errorf("committed %d at cycle 10, want all 3 (in order)", n)
	}
	if st.CommittedUops != 3 || st.CommittedMacros != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBackendCommitWidthBound(t *testing.T) {
	be, cfg := newTestBackend()
	var st Stats
	for i := 0; i < 20; i++ {
		be.pushROB(1, false, true, false, nil)
	}
	if n, _ := be.commit(5, &st); n != cfg.CommitWidth {
		t.Errorf("committed %d, want commit width %d", n, cfg.CommitWidth)
	}
}

func TestBackendDoomedCommitCountsAsSquashed(t *testing.T) {
	be, _ := newTestBackend()
	var st Stats
	be.pushROB(1, true, true, false, nil)
	be.pushROB(1, false, true, false, nil)
	be.commit(5, &st)
	if st.SquashedUops != 1 || st.CommittedUops != 1 {
		t.Errorf("squashed=%d committed=%d", st.SquashedUops, st.CommittedUops)
	}
}

func TestBackendCanDispatchLimits(t *testing.T) {
	be, cfg := newTestBackend()
	var st Stats
	// Fill the ROB with incomplete uops.
	for i := 0; i < cfg.ROBSize; i++ {
		be.pushROB(1<<60, false, true, false, nil)
	}
	if be.canDispatch(10, false) {
		t.Error("dispatch allowed with a full ROB")
	}
	be2, cfg2 := newTestBackend()
	// Fill the IQ with far-future issue times.
	for i := 0; i < cfg2.IQSize; i++ {
		u := uop.UOp{Kind: uop.KAlu, Fn: isa.FnAdd, Dst: isa.R1, Src1: isa.R1, Src2: isa.R1}
		be2.dispatch(&u, 1, 0, false, &st)
	}
	_ = be2.canDispatch(1, false) // must not panic; occupancy drained by time
}
