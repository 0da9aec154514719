package pipeline

import (
	"errors"
	"strings"
	"testing"

	"sccsim/internal/scc"
	"sccsim/internal/workloads"
)

// TestValidateRejectsUnsimulatableConfigs: each rule of Validate, at 0
// and at -1. Before the check, a zero functional-unit pool hung
// Machine.Run inside one cycle, and a zero cache or partition geometry
// or constant width panicked; now New returns the typed error without
// building a machine.
func TestValidateRejectsUnsimulatableConfigs(t *testing.T) {
	rules := []struct {
		field string
		set   func(c *Config, v int)
	}{
		{"IntALUs", func(c *Config, v int) { c.IntALUs = v }},
		{"MulUnits", func(c *Config, v int) { c.MulUnits = v }},
		{"DivUnits", func(c *Config, v int) { c.DivUnits = v }},
		{"FPUnits", func(c *Config, v int) { c.FPUnits = v }},
		{"MemPorts", func(c *Config, v int) { c.MemPorts = v }},
		{"Hier.L1I.Sets", func(c *Config, v int) { c.Hier.L1I.Sets = v }},
		{"Hier.L1I.Ways", func(c *Config, v int) { c.Hier.L1I.Ways = v }},
		{"Hier.L1D.Sets", func(c *Config, v int) { c.Hier.L1D.Sets = v }},
		{"Hier.L1D.Ways", func(c *Config, v int) { c.Hier.L1D.Ways = v }},
		{"Hier.L2.Sets", func(c *Config, v int) { c.Hier.L2.Sets = v }},
		{"Hier.L2.Ways", func(c *Config, v int) { c.Hier.L2.Ways = v }},
		{"Hier.L3.Sets", func(c *Config, v int) { c.Hier.L3.Sets = v }},
		{"Hier.L3.Ways", func(c *Config, v int) { c.Hier.L3.Ways = v }},
		{"UC.UnoptSets", func(c *Config, v int) { c.UC.UnoptSets = v }},
		{"SCC.ConstWidthBits", func(c *Config, v int) { c.SCC.ConstWidthBits = v }},
	}
	w, _ := workloads.ByName("xalancbmk")
	for _, r := range rules {
		for _, v := range []int{0, -1} {
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
	}
	for _, l := range scc.Levels() {
		if err := IcelakeSCC(l).Validate(); err != nil {
			t.Errorf("IcelakeSCC(%v): %v", l, err)
		}
	}
}
