package pipeline

import (
	"errors"
	"strings"
	"testing"

	"sccsim/internal/scc"
	"sccsim/internal/workloads"
)

// TestValidateRejectsUnsimulatableConfigs: each rule of Validate, on a
// full-SCC config, at every value below its minimum down to -1. Before
// the check, a zero functional-unit pool hung Machine.Run inside one
// cycle, and a zero cache or partition geometry or constant width
// panicked; a negative latency simulated impossible timing (DRAM at -1
// ran mcf in 540 cycles against 100,207 at 200), and an SCC unit with
// no optimized partition ran and was charged without eliminating a
// uop. Now New returns the typed error without building a machine. A
// zero latency, a baseline config without an optimized partition, every
// IcelakeSCC level and the Figure 10 partition splits stay legal.
func TestValidateRejectsUnsimulatableConfigs(t *testing.T) {
	rules := []struct {
		field string
		min   int
		set   func(c *Config, v int)
	}{
		{"IntALUs", 1, func(c *Config, v int) { c.IntALUs = v }},
		{"MulUnits", 1, func(c *Config, v int) { c.MulUnits = v }},
		{"DivUnits", 1, func(c *Config, v int) { c.DivUnits = v }},
		{"FPUnits", 1, func(c *Config, v int) { c.FPUnits = v }},
		{"MemPorts", 1, func(c *Config, v int) { c.MemPorts = v }},
		{"Hier.L1I.Sets", 1, func(c *Config, v int) { c.Hier.L1I.Sets = v }},
		{"Hier.L1I.Ways", 1, func(c *Config, v int) { c.Hier.L1I.Ways = v }},
		{"Hier.L1D.Sets", 1, func(c *Config, v int) { c.Hier.L1D.Sets = v }},
		{"Hier.L1D.Ways", 1, func(c *Config, v int) { c.Hier.L1D.Ways = v }},
		{"Hier.L2.Sets", 1, func(c *Config, v int) { c.Hier.L2.Sets = v }},
		{"Hier.L2.Ways", 1, func(c *Config, v int) { c.Hier.L2.Ways = v }},
		{"Hier.L3.Sets", 1, func(c *Config, v int) { c.Hier.L3.Sets = v }},
		{"Hier.L3.Ways", 1, func(c *Config, v int) { c.Hier.L3.Ways = v }},
		{"UC.UnoptSets", 1, func(c *Config, v int) { c.UC.UnoptSets = v }},
		{"SCC.ConstWidthBits", 1, func(c *Config, v int) { c.SCC.ConstWidthBits = v }},
		{"UC.OptSets", 1, func(c *Config, v int) { c.UC.OptSets = v }},
		{"UC.OptWays", 1, func(c *Config, v int) { c.UC.OptWays = v }},
		{"DecodeLatency", 0, func(c *Config, v int) { c.DecodeLatency = v }},
		{"UopCacheLatency", 0, func(c *Config, v int) { c.UopCacheLatency = v }},
		{"IntLatency", 0, func(c *Config, v int) { c.IntLatency = v }},
		{"MulLatency", 0, func(c *Config, v int) { c.MulLatency = v }},
		{"DivLatency", 0, func(c *Config, v int) { c.DivLatency = v }},
		{"FPLatency", 0, func(c *Config, v int) { c.FPLatency = v }},
		{"RedirectLatency", 0, func(c *Config, v int) { c.RedirectLatency = v }},
		{"Hier.L1I.Latency", 0, func(c *Config, v int) { c.Hier.L1I.Latency = v }},
		{"Hier.L1D.Latency", 0, func(c *Config, v int) { c.Hier.L1D.Latency = v }},
		{"Hier.L2.Latency", 0, func(c *Config, v int) { c.Hier.L2.Latency = v }},
		{"Hier.L3.Latency", 0, func(c *Config, v int) { c.Hier.L3.Latency = v }},
		{"Hier.DRAMLatency", 0, func(c *Config, v int) { c.Hier.DRAMLatency = v }},
	}
	w, _ := workloads.ByName("xalancbmk")
	for _, r := range rules {
		for v := r.min - 1; v >= -1; v-- {
			cfg := IcelakeSCC(scc.LevelFull)
			r.set(&cfg, v)
			err := cfg.Validate()
			if !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("%s = %d: Validate = %v, want ErrInvalidConfig", r.field, v, err)
			}
			if !strings.Contains(err.Error(), r.field) {
				t.Errorf("%s = %d: error %q does not name the field", r.field, v, err)
			}
			m, err := New(cfg, w.Program())
			if m != nil || !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("%s = %d: New = (%v, %v), want (nil, ErrInvalidConfig)", r.field, v, m, err)
			}
		}
		if r.min == 0 {
			cfg := IcelakeSCC(scc.LevelFull)
			r.set(&cfg, 0)
			if err := cfg.Validate(); err != nil {
				t.Errorf("%s = 0: %v, want a legal config", r.field, err)
			}
		}
	}
	for _, l := range scc.Levels() {
		if err := IcelakeSCC(l).Validate(); err != nil {
			t.Errorf("IcelakeSCC(%v): %v", l, err)
		}
	}
	for _, sets := range []int{12, 24, 36} {
		if err := IcelakeSCC(scc.LevelFull).WithPartitionSplit(sets).Validate(); err != nil {
			t.Errorf("Figure 10 split with %d optimized sets: %v", sets, err)
		}
	}
}
