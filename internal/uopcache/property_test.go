package uopcache

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"sccsim/internal/snap"
)

// TestPropertyPartitionInvariants drives a partition with random
// insert/lookup/lock/remove traffic and checks the structural invariants
// after every operation: per-set way usage never exceeds associativity,
// locked lines are never evicted, and lookups only return matching lines.
func TestPropertyPartitionInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	for trial := 0; trial < 20; trial++ {
		sets := 1 << (1 + rng.Intn(4))
		ways := 2 + rng.Intn(7)
		p := NewPartition(sets, ways, 0)
		var locked []*Line

		check := func(op string) {
			t.Helper()
			for si, set := range p.sets {
				used := 0
				for _, l := range set {
					used += l.Ways
					if int((l.EntryPC>>5)%uint64(sets)) != si {
						t.Fatalf("%s: line@%#x in wrong set %d", op, l.EntryPC, si)
					}
				}
				if used > ways {
					t.Fatalf("%s: set %d uses %d ways > %d", op, si, used, ways)
				}
			}
			for _, l := range locked {
				if p.Peek(l.EntryPC) != l {
					t.Fatalf("%s: locked line@%#x was evicted", op, l.EntryPC)
				}
			}
		}

		for step := 0; step < 500; step++ {
			pc := uint64(0x1000 + rng.Intn(64)*32)
			switch rng.Intn(5) {
			case 0, 1:
				n := 1 + rng.Intn(18)
				p.Insert(NewLine(pc, mkUops(n, pc), nil))
				check("insert")
			case 2:
				if l := p.Lookup(pc); l != nil && l.EntryPC != pc {
					t.Fatal("lookup returned mismatched line")
				}
				check("lookup")
			case 3:
				if l := p.Peek(pc); l != nil && !l.Locked && p.Lock(l) {
					locked = append(locked, l)
				}
				check("lock")
			case 4:
				if len(locked) > 0 {
					l := locked[len(locked)-1]
					locked = locked[:len(locked)-1]
					p.Unlock(l)
				}
				check("unlock")
			}
		}
	}
}

// TestPropertyHotnessNeverNegative: random access/decay interleavings keep
// hotness counters non-negative.
func TestPropertyHotnessNeverNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	p := NewPartition(4, 8, 2)
	for i := 0; i < 16; i++ {
		p.Insert(NewLine(uint64(0x1000+i*32), mkUops(3, uint64(0x1000+i*32)), nil))
	}
	for step := 0; step < 2000; step++ {
		if rng.Intn(3) == 0 {
			p.Lookup(uint64(0x1000 + rng.Intn(16)*32))
		} else {
			p.Advance(1)
		}
		for _, l := range p.Lines() {
			if p.Hot(l) < 0 {
				t.Fatal("negative hotness")
			}
		}
	}
}

// TestPropertySelectNeverReturnsGatedLine: no selection ever returns an
// optimized line that fails the confidence/hotness/shrinkage/squash gates.
func TestPropertySelectNeverReturnsGatedLine(t *testing.T) {
	rng := rand.New(rand.NewSource(888))
	cfg := DefaultConfig()
	u := New(cfg)
	// Populate with random lines and metadata.
	for i := 0; i < 200; i++ {
		pc := uint64(0x1000 + rng.Intn(32)*32)
		u.Unopt.Insert(NewLine(pc, mkUops(1+rng.Intn(12), pc), nil))
		meta := &CompactMeta{
			DataInv:   []DataInvariant{{Key: pc, Value: int64(rng.Intn(10)), Conf: rng.Intn(16)}},
			OrigSlots: 1 + rng.Intn(18),
			Squashes:  uint64(rng.Intn(5)),
			Streams:   uint64(rng.Intn(50)),
		}
		l := NewLine(pc, mkUops(1+rng.Intn(meta.OrigSlots), pc), meta)
		l.hot = rng.Intn(6)
		u.Opt.Insert(l)
	}
	var scratch []*Line
	for step := 0; step < 2000; step++ {
		pc := uint64(0x1000 + rng.Intn(32)*32)
		var sel Selection
		sel, scratch = u.Select(pc, scratch, nil)
		if !sel.FromOpt {
			continue
		}
		m := sel.Line.Meta
		if m.MinConf() < cfg.StreamConfThreshold {
			t.Fatal("selected line below confidence threshold")
		}
		if m.Shrinkage(sel.Line.Slots) < cfg.MinShrinkage {
			t.Fatal("selected line below shrinkage threshold")
		}
		if cfg.SquashGate > 0 && m.Squashes >= 2 && m.Squashes*uint64(cfg.SquashGate) > m.Streams {
			t.Fatal("selected a squash-gated line")
		}
	}
}

// TestPropertyLazyDecayMatchesEager drives partitions at the decay
// periods the hotness-decay ablation uses with random Lookup, LookupAll,
// Insert (fresh lines and re-inserted evicted ones), Remove and
// clock-advance steps, single cycles and long skips alike. After every
// step the hotness accessor must equal an eager model that decrements
// every resident line once per period, an evicted line must keep the
// hotness it left with, a restored partition must read the same
// hotness, and the partition must survive
// EncodeSnapshot→RestoreSnapshot→EncodeSnapshot byte for byte.
func TestPropertyLazyDecayMatchesEager(t *testing.T) {
	for _, period := range []int{1, 3, 28} {
		t.Run(fmt.Sprintf("period%d", period), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + period)))
			const sets, ways = 4, 4
			p := NewPartition(sets, ways, period)
			model := map[*Line]int{} // eager hotness of every line ever made
			acc := 0                 // eager decay accumulator
			var pool []*Line
			pcs := func() uint64 { return uint64(0x1000 + rng.Intn(24)*32) }

			resident := func() map[*Line]bool {
				in := map[*Line]bool{}
				for _, set := range p.sets {
					for _, l := range set {
						in[l] = true
					}
				}
				return in
			}
			for step := 0; step < 3000; step++ {
				var op string
				switch rng.Intn(6) {
				case 0:
					op = "insert"
					var l *Line
					if len(pool) > 0 && rng.Intn(3) == 0 {
						l = pool[rng.Intn(len(pool))] // may be resident or evicted
						if resident()[l] {
							break
						}
					} else {
						pc := pcs()
						var meta *CompactMeta
						if rng.Intn(2) == 0 {
							meta = &CompactMeta{DataInv: []DataInvariant{{Key: pc, Value: int64(rng.Intn(3))}}}
						}
						l = NewLine(pc, mkUops(1+rng.Intn(12), pc), meta)
						pool = append(pool, l)
						model[l] = 0
					}
					p.Insert(l)
				case 1:
					op = "lookup"
					if l := p.Lookup(pcs()); l != nil {
						model[l]++
					}
				case 2:
					op = "lookupall"
					for _, l := range p.LookupAll(pcs(), nil) {
						model[l]++
					}
				case 3:
					op = "remove"
					if len(pool) > 0 {
						p.Remove(pool[rng.Intn(len(pool))])
					}
				default:
					op = "advance"
					n := 1
					if rng.Intn(4) == 0 {
						n = rng.Intn(100)
					}
					in := resident()
					for c := 0; c < n; c++ {
						if acc++; acc < period {
							continue
						}
						acc = 0
						for l := range in {
							if model[l] > 0 {
								model[l]--
							}
						}
					}
					p.Advance(n)
				}

				in := resident()
				for _, l := range pool {
					got := l.hot // an evicted line keeps what it left with
					if in[l] {
						got = p.Hot(l)
					}
					if got != model[l] {
						t.Fatalf("step %d (%s): line@%#x resident=%v hot %d, eager model %d",
							step, op, l.EntryPC, in[l], got, model[l])
					}
				}

				w := snap.NewWriter()
				p.EncodeSnapshot(w)
				data := w.Finish()
				r, err := snap.NewReader(data)
				if err != nil {
					t.Fatal(err)
				}
				q := NewPartition(sets, ways, period)
				q.RestoreSnapshot(r)
				if err := r.Err(); err != nil {
					t.Fatalf("step %d (%s): restore: %v", step, op, err)
				}
				for si := range p.sets {
					for i, l := range p.sets[si] {
						if got, want := q.Hot(q.sets[si][i]), p.Hot(l); got != want {
							t.Fatalf("step %d (%s): line@%#x restored with hot %d, want %d", step, op, l.EntryPC, got, want)
						}
					}
				}
				w2 := snap.NewWriter()
				q.EncodeSnapshot(w2)
				if !bytes.Equal(w2.Finish(), data) {
					t.Fatalf("step %d (%s): snapshot bytes changed across a restore", step, op)
				}
			}
		})
	}
}
