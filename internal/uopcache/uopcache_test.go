package uopcache

import (
	"testing"

	"sccsim/internal/isa"
	"sccsim/internal/uop"
)

func mkUops(n int, pc uint64) []uop.UOp {
	us := make([]uop.UOp, n)
	for i := range us {
		us[i] = uop.UOp{Kind: uop.KAlu, Fn: isa.FnAdd, Dst: isa.R1, Src1: isa.R1,
			Src2: isa.RegNone, Src2Imm: true, Imm2: 1, MacroPC: pc + uint64(i)*3, MacroLen: 3}
	}
	return us
}

func TestNewLineGeometry(t *testing.T) {
	l := NewLine(0x1000, mkUops(7, 0x1000), nil)
	if l.Slots != 7 || l.Ways != 2 {
		t.Errorf("slots=%d ways=%d, want 7/2", l.Slots, l.Ways)
	}
	l = NewLine(0x1000, mkUops(6, 0x1000), nil)
	if l.Ways != 1 {
		t.Errorf("6 slots should fit 1 way, got %d", l.Ways)
	}
	l = NewLine(0x1000, mkUops(18, 0x1000), nil)
	if l.Ways != MaxWaysPerRegion {
		t.Errorf("18 slots = %d ways", l.Ways)
	}
	// Fused pairs count once.
	us := mkUops(4, 0x1000)
	us[1].FusedWithPrev = true
	l = NewLine(0x1000, us, nil)
	if l.Slots != 3 {
		t.Errorf("fused slots = %d, want 3", l.Slots)
	}
}

func TestPartitionLookupInsert(t *testing.T) {
	p := NewPartition(8, 8, 0)
	if p.Lookup(0x1000) != nil {
		t.Error("empty partition hit")
	}
	l := NewLine(0x1000, mkUops(6, 0x1000), nil)
	if !p.Insert(l) {
		t.Fatal("insert failed")
	}
	got := p.Lookup(0x1000)
	if got != l {
		t.Fatal("lookup after insert failed")
	}
	if h := p.Hot(got); h != 1 {
		t.Errorf("hotness after one access = %d", h)
	}
	if p.Stats.Hits != 1 || p.Stats.Misses != 1 || p.Stats.Insertions != 1 {
		t.Errorf("stats = %+v", p.Stats)
	}
}

func TestPartitionEvictsLRU(t *testing.T) {
	p := NewPartition(1, 2, 0) // one set, two ways
	a := NewLine(0x1000, mkUops(6, 0x1000), nil)
	b := NewLine(0x2000, mkUops(6, 0x2000), nil)
	p.Insert(a)
	p.Insert(b)
	p.Lookup(0x1000) // make A most recent
	c := NewLine(0x3000, mkUops(6, 0x3000), nil)
	if !p.Insert(c) {
		t.Fatal("insert with eviction failed")
	}
	if p.Peek(0x2000) != nil {
		t.Error("LRU line B should have been evicted")
	}
	if p.Peek(0x1000) == nil {
		t.Error("recently used line A was evicted")
	}
}

func TestPartitionRespectsLocks(t *testing.T) {
	p := NewPartition(1, 2, 0)
	a := NewLine(0x1000, mkUops(6, 0x1000), nil)
	b := NewLine(0x2000, mkUops(6, 0x2000), nil)
	p.Insert(a)
	p.Insert(b)
	if !p.Lock(a) {
		t.Fatal("lock refused")
	}
	p.Lookup(0x2000) // make B most recent; A is LRU but locked
	c := NewLine(0x3000, mkUops(6, 0x3000), nil)
	if !p.Insert(c) {
		t.Fatal("insert should evict the unlocked line")
	}
	if p.Peek(0x1000) == nil {
		t.Error("locked line was evicted")
	}
	if p.Peek(0x2000) != nil {
		t.Error("unlocked line should have been the victim")
	}
	p.Unlock(a)
}

func TestLockCapBoundsWays(t *testing.T) {
	// At most 3 ways (18 fused uops) may be locked at once (§III).
	p := NewPartition(4, 8, 0)
	a := NewLine(0x1000, mkUops(12, 0x1000), nil) // 2 ways
	b := NewLine(0x2000, mkUops(6, 0x2000), nil)  // 1 way
	c := NewLine(0x3000, mkUops(6, 0x3000), nil)  // 1 way
	p.Insert(a)
	p.Insert(b)
	p.Insert(c)
	if !p.Lock(a) || !p.Lock(b) {
		t.Fatal("first 3 ways should lock")
	}
	if p.Lock(c) {
		t.Error("4th locked way must be refused")
	}
	p.Unlock(b)
	if !p.Lock(c) {
		t.Error("after unlock, lock should succeed")
	}
}

func TestInsertTooWideLineFails(t *testing.T) {
	p := NewPartition(4, 2, 0)
	l := NewLine(0x1000, mkUops(18, 0x1000), nil) // 3 ways > 2-way assoc
	if p.Insert(l) {
		t.Error("line wider than associativity must be rejected")
	}
}

func TestAllWaysLockedInsertFails(t *testing.T) {
	p := NewPartition(1, 2, 0)
	a := NewLine(0x1000, mkUops(12, 0x1000), nil) // 2 ways fills the set
	p.Insert(a)
	p.Lock(a)
	b := NewLine(0x2000, mkUops(6, 0x2000), nil)
	if p.Insert(b) {
		t.Error("insert must fail when only locked lines could be evicted")
	}
}

func TestHotnessDecay(t *testing.T) {
	p := NewPartition(4, 8, 3)
	l := NewLine(0x1000, mkUops(6, 0x1000), nil)
	p.Insert(l)
	for i := 0; i < 5; i++ {
		p.Lookup(0x1000)
	}
	if h := p.Hot(l); h != 5 {
		t.Fatalf("hot = %d", h)
	}
	for i := 0; i < 9; i++ { // 9 cycles at period 3 = 3 decays
		p.Advance(1)
	}
	if h := p.Hot(l); h != 2 {
		t.Errorf("after decay hot = %d, want 2", h)
	}
	p.Advance(30)
	if h := p.Hot(l); h != 0 {
		t.Errorf("hotness must floor at 0, got %d", h)
	}
}

func TestUnoptRefreshReplacesSameEntry(t *testing.T) {
	p := NewPartition(4, 8, 0)
	p.Insert(NewLine(0x1000, mkUops(6, 0x1000), nil))
	p.Insert(NewLine(0x1000, mkUops(5, 0x1000), nil))
	n := 0
	for _, l := range p.Lines() {
		if l.EntryPC == 0x1000 {
			n++
		}
	}
	if n != 1 {
		t.Errorf("duplicate unopt lines for one entry: %d", n)
	}
}

func TestOptPartitionCoHostsVersions(t *testing.T) {
	p := NewPartition(4, 8, 0)
	mA := &CompactMeta{DataInv: []DataInvariant{{Key: 1, Value: 10, Conf: 8}}, OrigSlots: 6}
	mB := &CompactMeta{DataInv: []DataInvariant{{Key: 1, Value: 20, Conf: 8}}, OrigSlots: 6}
	p.Insert(NewLine(0x1000, mkUops(4, 0x1000), mA))
	p.Insert(NewLine(0x1000, mkUops(4, 0x1000), mB))
	var got []*Line
	got = p.LookupAll(0x1000, got)
	if len(got) != 2 {
		t.Errorf("co-hosted versions = %d, want 2", len(got))
	}
	// An identical-invariant re-commit replaces rather than duplicates.
	p.Insert(NewLine(0x1000, mkUops(3, 0x1000), mA))
	got = p.LookupAll(0x1000, got[:0])
	if len(got) != 2 {
		t.Errorf("after identical re-commit, versions = %d, want 2", len(got))
	}
}

func TestCompactMetaConfidenceOps(t *testing.T) {
	m := &CompactMeta{
		DataInv:   []DataInvariant{{Conf: 5}, {Conf: 9}},
		CtrlInv:   []CtrlInvariant{{Conf: 14}},
		OrigSlots: 10,
	}
	if m.SumConf() != 28 || m.MinConf() != 5 {
		t.Errorf("SumConf=%d MinConf=%d", m.SumConf(), m.MinConf())
	}
	m.Reward()
	if m.DataInv[0].Conf != 6 || m.CtrlInv[0].Conf != 15 {
		t.Errorf("after reward: %+v", m)
	}
	m.Reward()
	if m.CtrlInv[0].Conf != 15 {
		t.Error("confidence must saturate at 15")
	}
	m.Penalize(0) // offender = first data invariant
	if m.DataInv[0].Conf != 1 || m.DataInv[1].Conf != 10 || m.CtrlInv[0].Conf != 14 {
		t.Errorf("after penalize: %+v", m)
	}
	for i := 0; i < 10; i++ {
		m.Penalize(0)
	}
	if m.DataInv[0].Conf != 0 {
		t.Error("confidence must floor at 0")
	}
	if m.Squashes != 11 {
		t.Errorf("squash count = %d", m.Squashes)
	}
}

func TestShrinkage(t *testing.T) {
	m := &CompactMeta{OrigSlots: 10}
	if m.Shrinkage(6) != 4 {
		t.Errorf("shrinkage = %d", m.Shrinkage(6))
	}
}

func selectCfg() Config {
	c := DefaultConfig()
	c.StreamConfThreshold = 5
	c.StreamHotThreshold = 1
	c.MinShrinkage = 1
	return c
}

func optLine(pc uint64, outSlots, origSlots, conf int) *Line {
	return NewLine(pc, mkUops(outSlots, pc), &CompactMeta{
		DataInv:   []DataInvariant{{Key: pc, Value: 42, Conf: conf}},
		OrigSlots: origSlots,
	})
}

func TestSelectPrefersProfitableOptimized(t *testing.T) {
	u := New(selectCfg())
	u.Unopt.Insert(NewLine(0x1000, mkUops(10, 0x1000), nil))
	good := optLine(0x1000, 5, 10, 12)
	u.Opt.Insert(good)
	good.hot = 3
	sel, _ := u.Select(0x1000, nil, nil)
	if !sel.FromOpt || sel.Line != good {
		t.Fatalf("selection = %+v", sel)
	}
	if sel.Score != 12+5 {
		t.Errorf("score = %d, want conf+shrinkage = 17", sel.Score)
	}
}

func TestSelectRejectsLowConfidence(t *testing.T) {
	u := New(selectCfg())
	unopt := NewLine(0x1000, mkUops(10, 0x1000), nil)
	u.Unopt.Insert(unopt)
	weak := optLine(0x1000, 5, 10, 2) // below StreamConfThreshold=5
	weak.hot = 5
	u.Opt.Insert(weak)
	sel, _ := u.Select(0x1000, nil, nil)
	if sel.FromOpt {
		t.Error("low-confidence line must not stream")
	}
	if sel.Line != unopt {
		t.Error("should fall back to the unoptimized version")
	}
}

func TestSelectRejectsColdLines(t *testing.T) {
	cfg := selectCfg()
	cfg.StreamHotThreshold = 4
	u := New(cfg)
	u.Unopt.Insert(NewLine(0x1000, mkUops(10, 0x1000), nil))
	l := optLine(0x1000, 5, 10, 12)
	u.Opt.Insert(l)
	// LookupAll in Select bumps hotness by 1; still below 4.
	sel, _ := u.Select(0x1000, nil, nil)
	if sel.FromOpt {
		t.Error("cold line must not stream")
	}
}

func TestSelectChecksCurrentPredictorState(t *testing.T) {
	u := New(selectCfg())
	u.Unopt.Insert(NewLine(0x1000, mkUops(10, 0x1000), nil))
	l := optLine(0x1000, 5, 10, 12)
	l.hot = 3
	u.Opt.Insert(l)
	// The VP no longer agrees with the stored invariant: must not stream.
	sel, _ := u.Select(0x1000, nil, func(d DataInvariant) bool { return false })
	if sel.FromOpt {
		t.Error("stale invariant must not stream (§V profitability check)")
	}
	sel, _ = u.Select(0x1000, nil, func(d DataInvariant) bool { return d.Value == 42 })
	if !sel.FromOpt {
		t.Error("matching invariant should stream")
	}
}

func TestSelectPicksHighestScoringVersion(t *testing.T) {
	u := New(selectCfg())
	u.Unopt.Insert(NewLine(0x1000, mkUops(12, 0x1000), nil))
	small := optLine(0x1000, 10, 12, 10) // score 10+2
	big := NewLine(0x1000, mkUops(6, 0x1000), &CompactMeta{
		DataInv:   []DataInvariant{{Key: 2, Value: 7, Conf: 10}},
		OrigSlots: 12, // score 10+6
	})
	small.hot, big.hot = 3, 3
	u.Opt.Insert(small)
	u.Opt.Insert(big)
	sel, _ := u.Select(0x1000, nil, nil)
	if sel.Line != big {
		t.Errorf("selected %v, want the higher-compaction version", sel.Line)
	}
}

func TestSelectWithoutOptPartition(t *testing.T) {
	u := New(BaselineConfig())
	l := NewLine(0x1000, mkUops(6, 0x1000), nil)
	u.Unopt.Insert(l)
	sel, _ := u.Select(0x1000, nil, nil)
	if sel.FromOpt || sel.Line != l {
		t.Errorf("baseline select = %+v", sel)
	}
}

func TestCapacityUops(t *testing.T) {
	// Table I: 2304 uops total for the unpartitioned baseline.
	u := New(BaselineConfig())
	if got := u.Unopt.CapacityUops(); got != 2304 {
		t.Errorf("baseline capacity = %d uops, want 2304", got)
	}
	d := New(DefaultConfig())
	if got := d.Unopt.CapacityUops() + d.Opt.CapacityUops(); got != 24*8*6+24*4*6 {
		t.Errorf("partitioned capacity = %d", got)
	}
}

func TestRemove(t *testing.T) {
	p := NewPartition(4, 8, 0)
	l := NewLine(0x1000, mkUops(6, 0x1000), nil)
	p.Insert(l)
	if !p.Remove(l) {
		t.Fatal("remove failed")
	}
	if p.Peek(0x1000) != nil {
		t.Error("line still present after Remove")
	}
	if p.Remove(l) {
		t.Error("double remove should fail")
	}
}

// --- SquashGate boundary tests (§V stream phase-out) ---

// gateLine builds a hot, confident, profitable optimized line with the
// given squash/stream history, inserted over a plain unoptimized line, so
// only the squash gate can keep it from streaming.
func gateLine(u *UopCache, squashes, streams uint64) *Line {
	u.Unopt.Insert(NewLine(0x1000, mkUops(10, 0x1000), nil))
	l := optLine(0x1000, 5, 10, 12)
	l.hot = 5
	l.Meta.Squashes = squashes
	l.Meta.Streams = streams
	u.Opt.Insert(l)
	return l
}

func TestSquashGateEquality(t *testing.T) {
	// The gate is a strict inequality: squashes*gate == streams sits
	// exactly at the tolerated violation rate of 1/gate and still streams.
	cfg := selectCfg() // SquashGate = 20
	u := New(cfg)
	gateLine(u, 3, 3*uint64(cfg.SquashGate))
	sel, _ := u.Select(0x1000, nil, nil)
	if !sel.FromOpt {
		t.Fatalf("line at exactly rate 1/gate must stream: %+v", sel)
	}
	if sel.GateTrips != 0 {
		t.Errorf("equality counted %d gate trips", sel.GateTrips)
	}
}

func TestSquashGateOffByOne(t *testing.T) {
	// One stream fewer and the rate crosses 1/gate: phased out.
	cfg := selectCfg()
	u := New(cfg)
	gateLine(u, 3, 3*uint64(cfg.SquashGate)-1)
	sel, _ := u.Select(0x1000, nil, nil)
	if sel.FromOpt {
		t.Fatalf("line past rate 1/gate must be phased out: %+v", sel)
	}
	if sel.Line == nil {
		t.Fatal("gated fetch must fall back to the unoptimized line")
	}
	if sel.GateTrips != 1 || sel.Candidates != 1 {
		t.Errorf("gate trips %d candidates %d, want 1/1", sel.GateTrips, sel.Candidates)
	}
}

func TestSquashGateSingleSquashFloor(t *testing.T) {
	// One squash never gates, no matter how bad the ratio — the floor of
	// two squashes keeps a single cold-start violation from killing a line.
	u := New(selectCfg())
	gateLine(u, 1, 0)
	sel, _ := u.Select(0x1000, nil, nil)
	if !sel.FromOpt {
		t.Fatalf("single squash must not gate: %+v", sel)
	}
	if sel.GateTrips != 0 {
		t.Errorf("single squash counted %d gate trips", sel.GateTrips)
	}
}

func TestSquashGateTwoSquashesGate(t *testing.T) {
	// At the floor: two squashes against zero validated streams gates.
	u := New(selectCfg())
	gateLine(u, 2, 0)
	sel, _ := u.Select(0x1000, nil, nil)
	if sel.FromOpt {
		t.Fatalf("two squashes with no streams must gate: %+v", sel)
	}
	if sel.GateTrips != 1 {
		t.Errorf("gate trips = %d, want 1", sel.GateTrips)
	}
}

func TestSquashGateDisabledAblation(t *testing.T) {
	// SquashGate = 0 is the profitability-analysis ablation: even a
	// pathological line keeps streaming and nothing counts as a trip.
	cfg := selectCfg()
	cfg.SquashGate = 0
	u := New(cfg)
	gateLine(u, 1000, 0)
	sel, _ := u.Select(0x1000, nil, nil)
	if !sel.FromOpt {
		t.Fatalf("ablated gate must not phase out: %+v", sel)
	}
	if sel.GateTrips != 0 {
		t.Errorf("ablated gate counted %d trips", sel.GateTrips)
	}
}

func TestSelectCountsCandidates(t *testing.T) {
	// Candidates counts every optimized version considered, selected or
	// not — the journal's Select verdict surfaces both.
	u := New(selectCfg())
	u.Unopt.Insert(NewLine(0x1000, mkUops(10, 0x1000), nil))
	weak := optLine(0x1000, 5, 10, 2) // below the confidence threshold
	weak.hot = 5
	u.Opt.Insert(weak)
	sel, _ := u.Select(0x1000, nil, nil)
	if sel.FromOpt {
		t.Fatalf("weak line streamed: %+v", sel)
	}
	if sel.Candidates != 1 || sel.GateTrips != 0 {
		t.Errorf("candidates %d trips %d, want 1/0", sel.Candidates, sel.GateTrips)
	}
}
