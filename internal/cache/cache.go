// Package cache implements the set-associative cache substrate and the
// three-level hierarchy (L1I/L1D, unified L2, shared L3, DRAM) of the
// baseline Icelake-like processor (Table I).
//
// The model is latency-oriented: each access reports hit/miss per level and
// the resulting load-to-use latency, which the pipeline charges to the
// consuming micro-op. Fills are inclusive and happen on the access path.
package cache

// ReplPolicy selects a replacement policy.
type ReplPolicy uint8

// Replacement policies (Table I uses LRU for L1/L2 and Random for L3).
const (
	ReplLRU ReplPolicy = iota
	ReplRandom
)

// Config sizes one cache level.
type Config struct {
	Name      string
	Sets      int
	Ways      int
	LineBytes int
	Latency   int // hit latency in cycles
	Repl      ReplPolicy
}

// SizeBytes returns the total capacity.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * c.LineBytes }

type line struct {
	tag   uint64
	valid bool
	lru   uint32
}

// Stats counts accesses per level.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// HitRate returns hits/(hits+misses), or 0 when unused.
func (s Stats) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// Cache is one set-associative cache level.
type Cache struct {
	cfg Config
	// sets views each set's ways. The ways of groupSets consecutive sets
	// share one backing array, allocated on the first fill into the
	// group or when a restore lists one of its lines; until then the
	// group's sets are empty, so Lookup and Contains miss on them with
	// no check of their own, and a level costs memory in proportion to
	// the sets a run touched, not to its capacity.
	sets     [][]line
	tick     uint32
	rng      uint64
	lineBits uint
	setMask  uint64
	Stats    Stats
}

// groupSets is how many consecutive sets share one lazily allocated
// backing array (all of them when a level has fewer sets).
const groupSets = 64

// New builds a cache level. Sets and LineBytes must be powers of two.
func New(cfg Config) *Cache {
	c := &Cache{cfg: cfg, rng: 0x243f6a8885a308d3}
	c.sets = make([][]line, cfg.Sets)
	for b := cfg.LineBytes; b > 1; b >>= 1 {
		c.lineBits++
	}
	c.setMask = uint64(cfg.Sets - 1)
	return c
}

// group allocates the ways of the group holding set idx and returns
// that set. The last group is cut short when the set count is not a
// multiple of groupSets.
func (c *Cache) group(idx int) []line {
	first, ways := idx-idx%groupSets, c.cfg.Ways
	sets := c.sets[first:min(first+groupSets, len(c.sets))]
	backing := make([]line, len(sets)*ways)
	for k := range sets {
		sets[k] = backing[k*ways : (k+1)*ways : (k+1)*ways]
	}
	return c.sets[idx]
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) locate(addr uint64) (set []line, tag uint64) {
	idx := (addr >> c.lineBits) & c.setMask
	return c.sets[idx], addr >> c.lineBits
}

// Lookup probes the cache without filling. It updates recency on hit.
func (c *Cache) Lookup(addr uint64) bool {
	set, tag := c.locate(addr)
	c.tick++
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.tick
			c.Stats.Hits++
			return true
		}
	}
	c.Stats.Misses++
	return false
}

// Contains probes without touching stats or recency (prefetch checks).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.locate(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Fill inserts the line containing addr, evicting per policy.
func (c *Cache) Fill(addr uint64) {
	set, tag := c.locate(addr)
	if len(set) == 0 {
		set = c.group(int((addr >> c.lineBits) & c.setMask))
	}
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

// Access probes and fills on miss, returning whether it hit.
func (c *Cache) Access(addr uint64) bool {
	if c.Lookup(addr) {
		return true
	}
	c.Fill(addr)
	return false
}

// Hierarchy is the full data/instruction memory hierarchy.
type Hierarchy struct {
	L1I, L1D, L2, L3 *Cache
	DRAMLatency      int
	// NextLinePrefetch enables a simple next-line prefetcher on L1D
	// misses (opt-in; the calibrated Table I baseline runs without it).
	NextLinePrefetch bool
	// DRAMAccesses counts trips to main memory (for the energy model).
	DRAMAccesses uint64
	// Prefetches counts prefetch fills issued.
	Prefetches uint64
}

// HierarchyConfig sizes the full hierarchy.
type HierarchyConfig struct {
	L1I, L1D, L2, L3 Config
	DRAMLatency      int
	NextLinePrefetch bool
}

// DefaultHierarchyConfig returns the Table I configuration:
// 32 KB 8-way L1I, 48 KB 12-way L1D, 512 KB 8-way L2, 8 MB 16-way L3
// (random replacement), 200-cycle DRAM.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:         Config{Name: "l1i", Sets: 64, Ways: 8, LineBytes: 64, Latency: 4, Repl: ReplLRU},
		L1D:         Config{Name: "l1d", Sets: 64, Ways: 12, LineBytes: 64, Latency: 5, Repl: ReplLRU},
		L2:          Config{Name: "l2", Sets: 1024, Ways: 8, LineBytes: 64, Latency: 14, Repl: ReplLRU},
		L3:          Config{Name: "l3", Sets: 8192, Ways: 16, LineBytes: 64, Latency: 40, Repl: ReplRandom},
		DRAMLatency: 200,
	}
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		L1I:              New(cfg.L1I),
		L1D:              New(cfg.L1D),
		L2:               New(cfg.L2),
		L3:               New(cfg.L3),
		DRAMLatency:      cfg.DRAMLatency,
		NextLinePrefetch: cfg.NextLinePrefetch,
	}
}

// LoadLatency performs a data-side access and returns the load-to-use
// latency in cycles, filling all levels on the miss path.
func (h *Hierarchy) LoadLatency(addr uint64) int {
	if h.L1D.Access(addr) {
		return h.L1D.cfg.Latency
	}
	defer h.prefetch(addr)
	if h.L2.Access(addr) {
		return h.L2.cfg.Latency
	}
	if h.L3.Access(addr) {
		return h.L3.cfg.Latency
	}
	h.DRAMAccesses++
	return h.DRAMLatency
}

// prefetch issues a next-line fill after an L1D miss.
func (h *Hierarchy) prefetch(addr uint64) {
	if !h.NextLinePrefetch {
		return
	}
	next := addr + uint64(h.L1D.cfg.LineBytes)
	h.Prefetches++
	if !h.L1D.Contains(next) {
		h.L1D.Fill(next)
		if !h.L2.Contains(next) {
			h.L2.Fill(next)
		}
	}
}

// StoreAccess performs a data-side store access (write-allocate), returning
// the latency for store-buffer drain modeling.
func (h *Hierarchy) StoreAccess(addr uint64) int {
	return h.LoadLatency(addr)
}

// FetchLatency performs an instruction-side access and returns the fetch
// latency in cycles.
func (h *Hierarchy) FetchLatency(addr uint64) int {
	if h.L1I.Access(addr) {
		return h.L1I.cfg.Latency
	}
	if h.L2.Access(addr) {
		return h.L2.cfg.Latency
	}
	if h.L3.Access(addr) {
		return h.L3.cfg.Latency
	}
	h.DRAMAccesses++
	return h.DRAMLatency
}
