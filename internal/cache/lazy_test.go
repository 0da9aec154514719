package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"sccsim/internal/snap"
)

// denseCache is the reference model for lazily allocated groups: one
// level with every way of every set allocated up front, and the same
// lookup, fill and replacement rules as Cache.
type denseCache struct {
	cfg      Config
	sets     [][]line
	tick     uint32
	rng      uint64
	lineBits uint
	setMask  uint64
	stats    Stats
}

func newDense(cfg Config) *denseCache {
	c := &denseCache{cfg: cfg, rng: 0x243f6a8885a308d3, setMask: uint64(cfg.Sets - 1)}
	c.sets = make([][]line, cfg.Sets)
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Ways)
	}
	for b := cfg.LineBytes; b > 1; b >>= 1 {
		c.lineBits++
	}
	return c
}

func (c *denseCache) locate(addr uint64) ([]line, uint64) {
	return c.sets[(addr>>c.lineBits)&c.setMask], addr >> c.lineBits
}

func (c *denseCache) lookup(addr uint64) bool {
	set, tag := c.locate(addr)
	c.tick++
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.tick
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

func (c *denseCache) contains(addr uint64) bool {
	set, tag := c.locate(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

func (c *denseCache) fill(addr uint64) {
	set, tag := c.locate(addr)
	victim := 0
	switch c.cfg.Repl {
	case ReplLRU:
		oldest := uint32(1<<32 - 1)
		for i := range set {
			if !set[i].valid {
				victim = i
				break
			}
			if set[i].lru <= oldest {
				oldest = set[i].lru
				victim = i
			}
		}
	case ReplRandom:
		free := -1
		for i := range set {
			if !set[i].valid {
				free = i
				break
			}
		}
		if free >= 0 {
			victim = free
		} else {
			c.rng ^= c.rng << 13
			c.rng ^= c.rng >> 7
			c.rng ^= c.rng << 17
			victim = int(c.rng % uint64(len(set)))
		}
	}
	c.tick++
	set[victim] = line{tag: tag, valid: true, lru: c.tick}
}

func (c *denseCache) access(addr uint64) bool {
	if c.lookup(addr) {
		return true
	}
	c.fill(addr)
	return false
}

// encode writes the level in Cache.EncodeSnapshot's format, walking
// every way of every set.
func (c *denseCache) encode(w *snap.Writer) {
	w.U32(uint32(c.cfg.Sets))
	w.U32(uint32(c.cfg.Ways))
	w.U32(c.tick)
	w.U64(c.rng)
	w.Block(&c.stats)
	t := w.Sparse(c.cfg.Sets * c.cfg.Ways)
	for i := range c.sets {
		for j, ln := range c.sets[i] {
			if ln.valid || ln.tag != 0 || ln.lru != 0 {
				t.Entry(i*c.cfg.Ways + j)
				w.U64(ln.tag)
				w.Bool(ln.valid)
				w.U32(ln.lru)
			}
		}
	}
	t.End()
}

// denseHier mirrors Hierarchy's load, fetch and prefetch paths over
// dense levels.
type denseHier struct {
	l1i, l1d, l2, l3         *denseCache
	dram, dramAcc, prefetchN uint64
	nextLine                 bool
}

func newDenseHier(cfg HierarchyConfig) *denseHier {
	return &denseHier{l1i: newDense(cfg.L1I), l1d: newDense(cfg.L1D), l2: newDense(cfg.L2), l3: newDense(cfg.L3),
		dram: uint64(cfg.DRAMLatency), nextLine: cfg.NextLinePrefetch}
}

func (h *denseHier) load(addr uint64) int {
	if h.l1d.access(addr) {
		return h.l1d.cfg.Latency
	}
	if h.nextLine {
		defer func() {
			next := addr + uint64(h.l1d.cfg.LineBytes)
			h.prefetchN++
			if !h.l1d.contains(next) {
				h.l1d.fill(next)
				if !h.l2.contains(next) {
					h.l2.fill(next)
				}
			}
		}()
	}
	return h.below(addr)
}

func (h *denseHier) fetch(addr uint64) int {
	if h.l1i.access(addr) {
		return h.l1i.cfg.Latency
	}
	return h.below(addr)
}

func (h *denseHier) below(addr uint64) int {
	if h.l2.access(addr) {
		return h.l2.cfg.Latency
	}
	if h.l3.access(addr) {
		return h.l3.cfg.Latency
	}
	h.dramAcc++
	return int(h.dram)
}

func (h *denseHier) encode(w *snap.Writer) {
	h.l1i.encode(w)
	h.l1d.encode(w)
	h.l2.encode(w)
	h.l3.encode(w)
	w.U64(h.dramAcc)
	w.U64(h.prefetchN)
}

func encoded(enc func(*snap.Writer)) []byte {
	w := snap.NewWriter()
	enc(w)
	return w.Finish()
}

// randAddr draws from a mix that keeps sets conflicting (a few hot
// lines, a small footprint) while still reaching every group (a
// footprint several times the level).
func randAddr(rng *rand.Rand, cfg Config) uint64 {
	lines := cfg.Sets * cfg.Ways
	switch rng.Intn(4) {
	case 0:
		return uint64(rng.Intn(8)) * uint64(cfg.LineBytes)
	case 1:
		return uint64(rng.Intn(2*cfg.Ways)) * uint64(cfg.Sets*cfg.LineBytes)
	default:
		return uint64(rng.Intn(4*lines))*uint64(cfg.LineBytes) + uint64(rng.Intn(cfg.LineBytes))
	}
}

// modelSteps is how many random calls each model test makes. The tests
// have no concurrency for the race detector to check, and under it the
// dense model's walk of every Table-I line per step costs ten times as
// much, so race builds take fewer steps.
func modelSteps() int {
	if raceEnabled {
		return 150
	}
	return 1000
}

// oddLevels have a set count that is not a power of two: the last group
// of the 96-set level is cut short, and the 48-set level is one group
// smaller than groupSets. Nothing stops a posted config from asking for
// them, so they must simulate and restore like any other level.
var oddLevels = []Config{
	{Name: "odd-96", Sets: 96, Ways: 2, LineBytes: 64, Repl: ReplLRU},
	{Name: "odd-48", Sets: 48, Ways: 3, LineBytes: 64, Repl: ReplRandom},
}

// TestLazyGroupsMatchDenseModel drives random Lookup, Access, Fill and
// Contains calls at a level with lazily allocated groups and at the
// dense model, for both replacement policies at the Table-I geometry,
// at levels with fewer sets than one group and at levels whose set
// count is not a power of two. After every step the result, Stats,
// recency clock, replacement state and snapshot bytes must agree.
func TestLazyGroupsMatchDenseModel(t *testing.T) {
	def := DefaultHierarchyConfig()
	for _, cfg := range append([]Config{
		def.L1I, def.L1D, def.L2, def.L3,
		{Name: "small-lru", Sets: 16, Ways: 4, LineBytes: 64, Repl: ReplLRU},
		{Name: "small-random", Sets: 16, Ways: 4, LineBytes: 64, Repl: ReplRandom},
		{Name: "one-set", Sets: 1, Ways: 3, LineBytes: 32, Repl: ReplRandom},
	}, oddLevels...) {
		t.Run(cfg.Name, func(t *testing.T) {
			steps := modelSteps()
			c, m := New(cfg), newDense(cfg)
			rng := rand.New(rand.NewSource(int64(cfg.Sets*cfg.Ways) + int64(cfg.Repl)))
			for step := 0; step < steps; step++ {
				addr := randAddr(rng, cfg)
				var got, want bool
				op := rng.Intn(4)
				switch op {
				case 0:
					got, want = c.Lookup(addr), m.lookup(addr)
				case 1:
					got, want = c.Access(addr), m.access(addr)
				case 2:
					c.Fill(addr)
					m.fill(addr)
				case 3:
					got, want = c.Contains(addr), m.contains(addr)
				}
				if got != want || c.Stats != m.stats || c.tick != m.tick || c.rng != m.rng {
					t.Fatalf("step %d op %d addr %#x: result %v/%v stats %+v/%+v tick %d/%d rng %#x/%#x (lazy/dense)",
						step, op, addr, got, want, c.Stats, m.stats, c.tick, m.tick, c.rng, m.rng)
				}
				if !bytes.Equal(encoded(c.EncodeSnapshot), encoded(m.encode)) {
					t.Fatalf("step %d op %d addr %#x: snapshot bytes differ from the dense model", step, op, addr)
				}
			}
		})
	}
}

// TestRestoreOfAnySetStaysInGeometry restores, onto levels whose set
// count is not a power of two, one snapshot per set that lists a line
// in that set alone, including sets the index mask never reaches. The
// restore must allocate the set's group within the level's sets, and
// the restored level must re-encode to the snapshot's bytes.
func TestRestoreOfAnySetStaysInGeometry(t *testing.T) {
	for _, cfg := range oddLevels {
		t.Run(cfg.Name, func(t *testing.T) {
			for i := 0; i < cfg.Sets; i++ {
				m := newDense(cfg)
				m.sets[i][i%cfg.Ways] = line{tag: uint64(i), valid: true, lru: 1}
				want := encoded(m.encode)
				r, err := snap.NewReader(want)
				if err != nil {
					t.Fatal(err)
				}
				c := New(cfg)
				c.RestoreSnapshot(r)
				if err := r.Err(); err != nil {
					t.Fatalf("set %d: %v", i, err)
				}
				if got := encoded(c.EncodeSnapshot); !bytes.Equal(got, want) {
					t.Fatalf("set %d: restored level re-encodes to different bytes", i)
				}
				if len(c.sets[i]) != cfg.Ways {
					t.Fatalf("set %d has %d ways after the restore, want %d", i, len(c.sets[i]), cfg.Ways)
				}
			}
		})
	}
}

// TestLazyHierarchyMatchesDenseModel drives LoadLatency and
// FetchLatency streams through the Table-I hierarchy, with and without
// the next-line prefetcher, against the dense model.
func TestLazyHierarchyMatchesDenseModel(t *testing.T) {
	for _, prefetch := range []bool{false, true} {
		t.Run(fmt.Sprintf("prefetch=%v", prefetch), func(t *testing.T) {
			cfg := DefaultHierarchyConfig()
			cfg.NextLinePrefetch = prefetch
			h, m := NewHierarchy(cfg), newDenseHier(cfg)
			steps := modelSteps()
			rng := rand.New(rand.NewSource(7))
			for step := 0; step < steps; step++ {
				addr := randAddr(rng, cfg.L2)
				var got, want int
				if rng.Intn(3) == 0 {
					got, want = h.FetchLatency(addr), m.fetch(addr)
				} else {
					got, want = h.LoadLatency(addr), m.load(addr)
				}
				if got != want || h.DRAMAccesses != m.dramAcc || h.Prefetches != m.prefetchN {
					t.Fatalf("step %d addr %#x: latency %d/%d dram %d/%d prefetches %d/%d (lazy/dense)",
						step, addr, got, want, h.DRAMAccesses, m.dramAcc, h.Prefetches, m.prefetchN)
				}
				if !bytes.Equal(encoded(h.EncodeSnapshot), encoded(m.encode)) {
					t.Fatalf("step %d addr %#x: hierarchy snapshot differs from the dense model", step, addr)
				}
			}
		})
	}
}

// TestProbeOfUnallocatedGroupDoesNotAllocate: Lookup and Contains run
// the same code on a set whose group was never filled, so they neither
// allocate nor allocate the group.
func TestProbeOfUnallocatedGroupDoesNotAllocate(t *testing.T) {
	c := New(DefaultHierarchyConfig().L3)
	c.Fill(0) // group 0 allocated; the probes below land in others
	const addr = 0x12345640
	if allocs := testing.AllocsPerRun(100, func() {
		c.Lookup(addr)
		c.Contains(addr + 64)
	}); allocs != 0 {
		t.Fatalf("probes of an unallocated group made %v allocations, want 0", allocs)
	}
	for i, set := range c.sets {
		if len(set) != 0 && i >= groupSets {
			t.Fatalf("set %d allocated by a probe", i)
		}
	}
}

// TestNewHierarchyAllocatesOnlySetHeaders: building the Table-I
// hierarchy allocates the per-set views, not the 2.1 MB of ways behind
// them.
func TestNewHierarchyAllocatesOnlySetHeaders(t *testing.T) {
	const builds = 10
	cfg := DefaultHierarchyConfig()
	hs := make([]*Hierarchy, builds)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range hs {
		hs[i] = NewHierarchy(cfg)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / builds; per >= 300<<10 {
		t.Fatalf("NewHierarchy allocated %d bytes, want under 300 KiB", per)
	}
}
