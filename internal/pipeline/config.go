// Package pipeline implements the cycle-level out-of-order core simulator:
// the substrate standing in for the paper's gem5 O3 x86 model (Table I,
// Icelake-like), extended with the SCC front end.
//
// Modeling approach: execute-at-fetch with a dependence-driven back end.
// The functional oracle (internal/emu) advances architectural state as
// micro-ops are fetched; the timing back end charges each micro-op its
// dispatch, issue (operand readiness + functional-unit contention) and
// completion cycles under ROB/IQ/LSQ occupancy limits, with in-order
// commit. Branch mispredictions and SCC invariant violations stall fetch
// until the offending micro-op resolves in the back end plus a redirect
// penalty — the standard technique for front-end studies, which captures
// exactly the effects SCC's gains and losses flow through.
package pipeline

import (
	"errors"
	"fmt"
	"math"

	"sccsim/internal/cache"
	"sccsim/internal/scc"
	"sccsim/internal/uopcache"
)

// Config is the full machine configuration.
type Config struct {
	// Core widths (Table I: 6 fused uops fetch; Icelake-like widths).
	FetchWidth  int // fused slots fetched per cycle from the uop cache
	DecodeWidth int // macro-ops decoded per cycle on the legacy path
	RenameWidth int // fused slots renamed/dispatched per cycle
	CommitWidth int // uops committed per cycle

	// Queue/window sizes.
	IDQSize int // instruction decode queue (Table I: 140 entries)
	ROBSize int
	IQSize  int
	LSQSize int

	// Functional units.
	IntALUs  int
	MulUnits int
	DivUnits int
	FPUnits  int
	MemPorts int

	// Latencies.
	DecodeLatency   int // extra pipe depth of the legacy decode path
	UopCacheLatency int // uop-cache-to-IDQ latency
	IntLatency      int
	MulLatency      int
	DivLatency      int // unpipelined
	FPLatency       int
	RedirectLatency int // resolve-to-refetch penalty on mispredict/squash

	// Predictors.
	ValuePredictor string // "eves", "h3vp", "lastvalue"
	// VPTrainConfThreshold: the baseline's value-predictor forwarding
	// confidence (the artifact runs the baseline with
	// predictionConfidenceThreshold=15, i.e. effectively validation-only).
	VPTrainConfThreshold int

	// Memory hierarchy and micro-op cache.
	Hier cache.HierarchyConfig
	UC   uopcache.Config

	// SCC.
	SCCEnabled bool
	SCC        scc.Config

	// Run length.
	MaxUops uint64
}

// ErrInvalidConfig is the sentinel every Validate error wraps.
var ErrInvalidConfig = errors.New("pipeline: invalid config")

// Validate rejects a configuration the pipeline cannot simulate: a
// functional-unit pool with no units (Machine.Run would loop forever
// inside one cycle, below the progress guard), a cache level with no
// sets or ways, an unoptimized micro-op cache partition with no sets, or
// a non-positive constant width (New or the SCC unit would panic); a
// negative latency, which would simulate impossible timing (zero is a
// legal latency); and an SCC unit with no optimized partition to fill,
// which would run and be charged for lines that can never stream. The
// error wraps ErrInvalidConfig and names the field and its value. Zero
// widths and queue sizes are left to the progress guard, which turns
// them into a Run error.
func (c Config) Validate() error {
	optMin := math.MinInt // without the SCC unit, no optimized partition is needed
	if c.SCCEnabled {
		optMin = 1
	}
	for _, r := range [...]struct {
		name   string
		v, min int
	}{
		{"IntALUs", c.IntALUs, 1},
		{"MulUnits", c.MulUnits, 1},
		{"DivUnits", c.DivUnits, 1},
		{"FPUnits", c.FPUnits, 1},
		{"MemPorts", c.MemPorts, 1},
		{"Hier.L1I.Sets", c.Hier.L1I.Sets, 1},
		{"Hier.L1I.Ways", c.Hier.L1I.Ways, 1},
		{"Hier.L1D.Sets", c.Hier.L1D.Sets, 1},
		{"Hier.L1D.Ways", c.Hier.L1D.Ways, 1},
		{"Hier.L2.Sets", c.Hier.L2.Sets, 1},
		{"Hier.L2.Ways", c.Hier.L2.Ways, 1},
		{"Hier.L3.Sets", c.Hier.L3.Sets, 1},
		{"Hier.L3.Ways", c.Hier.L3.Ways, 1},
		{"UC.UnoptSets", c.UC.UnoptSets, 1},
		{"UC.OptSets", c.UC.OptSets, optMin},
		{"UC.OptWays", c.UC.OptWays, optMin},
		{"SCC.ConstWidthBits", c.SCC.ConstWidthBits, 1},
		{"DecodeLatency", c.DecodeLatency, 0},
		{"UopCacheLatency", c.UopCacheLatency, 0},
		{"IntLatency", c.IntLatency, 0},
		{"MulLatency", c.MulLatency, 0},
		{"DivLatency", c.DivLatency, 0},
		{"FPLatency", c.FPLatency, 0},
		{"RedirectLatency", c.RedirectLatency, 0},
		{"Hier.L1I.Latency", c.Hier.L1I.Latency, 0},
		{"Hier.L1D.Latency", c.Hier.L1D.Latency, 0},
		{"Hier.L2.Latency", c.Hier.L2.Latency, 0},
		{"Hier.L3.Latency", c.Hier.L3.Latency, 0},
		{"Hier.DRAMLatency", c.Hier.DRAMLatency, 0},
	} {
		if r.v < r.min {
			return fmt.Errorf("%w: %s = %d, must be >= %d", ErrInvalidConfig, r.name, r.v, r.min)
		}
	}
	return nil
}

// Icelake returns the Table I baseline configuration (no SCC, unpartitioned
// 2304-uop micro-op cache).
func Icelake() Config {
	return Config{
		FetchWidth:  6,
		DecodeWidth: 5,
		RenameWidth: 5,
		CommitWidth: 8,
		IDQSize:     140,
		ROBSize:     352,
		IQSize:      160,
		LSQSize:     128,

		IntALUs:  4,
		MulUnits: 1,
		DivUnits: 1,
		FPUnits:  2,
		MemPorts: 3,

		DecodeLatency:   5,
		UopCacheLatency: 1,
		IntLatency:      1,
		MulLatency:      3,
		DivLatency:      18,
		FPLatency:       4,
		RedirectLatency: 6,

		ValuePredictor:       "eves",
		VPTrainConfThreshold: 15,

		Hier: cache.DefaultHierarchyConfig(),
		UC:   uopcache.BaselineConfig(),

		SCCEnabled: false,
		SCC:        scc.ConfigForLevel(scc.LevelBaseline),

		MaxUops: 500_000,
	}
}

// IcelakeSCC returns the full-SCC configuration: the partitioned micro-op
// cache (24 unoptimized + 24 optimized sets, matching the artifact's
// uopCacheNumSets=24 / specCacheNumSets=24) and the SCC unit at the given
// optimization level.
func IcelakeSCC(level scc.Level) Config {
	c := Icelake()
	if level >= scc.LevelPartitioned {
		c.UC = uopcache.DefaultConfig()
	}
	if level >= scc.LevelMoveElim {
		c.SCCEnabled = true
		c.SCC = scc.ConfigForLevel(level)
	}
	return c
}

// WithPartitionSplit reallocates the micro-op cache sets between the
// unoptimized and optimized partitions out of a 48-set total (Figure 10:
// 12/36, 24/24, 36/12 optimized/unoptimized splits).
func (c Config) WithPartitionSplit(optSets int) Config {
	c.UC.OptSets = optSets
	c.UC.UnoptSets = 48 - optSets
	return c
}

// WithValuePredictor switches the value predictor (Figure 9).
func (c Config) WithValuePredictor(name string) Config {
	c.ValuePredictor = name
	return c
}

// WithConstWidth restricts SCC constant widths (Figure 11).
func (c Config) WithConstWidth(bits int) Config {
	c.SCC.ConstWidthBits = bits
	return c
}
