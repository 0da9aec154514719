package pipeline

// Integration tests: every built-in workload, under the baseline and full
// SCC, must (a) run to its budget without deadlock, (b) leave architectural
// state identical to the pure functional golden model, and (c) obey global
// accounting invariants.

import (
	"reflect"
	"testing"

	"sccsim/internal/emu"
	"sccsim/internal/isa"
	"sccsim/internal/scc"
	"sccsim/internal/workloads"
)

func TestIntegrationAllWorkloadsGolden(t *testing.T) {
	const budget = 30_000
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			golden := emu.New(w.Program())
			if w.MemInit != nil {
				w.MemInit(golden.Mem)
			}
			golden.Run(budget)

			for _, mode := range []string{"baseline", "scc"} {
				cfg := Icelake()
				if mode == "scc" {
					cfg = IcelakeSCC(scc.LevelFull)
				}
				cfg.MaxUops = budget
				m, err := New(cfg, w.Program())
				if err != nil {
					t.Fatal(err)
				}
				if w.MemInit != nil {
					w.MemInit(m.Oracle.Mem)
				}
				st, err := m.Run()
				if err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
				// (a) progress.
				if st.CommittedUops == 0 {
					t.Fatalf("%s: nothing committed", mode)
				}
				// (b) architectural equivalence with the golden model.
				// The oracle may legitimately be a few uops past the
				// budget (it stops at a stream boundary), so re-run the
				// golden model to the oracle's exact uop count.
				g2 := emu.New(w.Program())
				if w.MemInit != nil {
					w.MemInit(g2.Mem)
				}
				g2.Run(m.Oracle.UopCount)
				for r := isa.R0; r <= isa.SP; r++ {
					if a, b := m.Oracle.St.Get(r), g2.St.Get(r); a != b {
						t.Errorf("%s: %s = %d, golden %d", mode, r, a, b)
					}
				}
				// (c) accounting invariants.
				if st.CommittedUops > m.Oracle.UopCount {
					t.Errorf("%s: committed %d > oracle work %d", mode, st.CommittedUops, m.Oracle.UopCount)
				}
				if mode == "baseline" && st.EliminatedUops() != 0 {
					t.Errorf("baseline eliminated %d uops", st.EliminatedUops())
				}
				if st.CommittedUops+st.EliminatedUops() < budget-100 {
					t.Errorf("%s: committed+eliminated = %d, want ~%d",
						mode, st.CommittedUops+st.EliminatedUops(), budget)
				}
			}
		})
	}
}

func TestIntegrationDeterminism(t *testing.T) {
	// Two identical SCC runs must agree cycle-for-cycle (required for the
	// figures to be reproducible).
	w, _ := workloads.ByName("freqmine")
	run := func() (uint64, uint64, uint64) {
		cfg := IcelakeSCC(scc.LevelFull)
		cfg.MaxUops = 40_000
		m, _ := New(cfg, w.Program())
		st, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles, st.CommittedUops, st.EliminatedUops()
	}
	c1, u1, e1 := run()
	c2, u2, e2 := run()
	if c1 != c2 || u1 != u2 || e1 != e2 {
		t.Errorf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", c1, u1, e1, c2, u2, e2)
	}
}

func TestIntegrationExtensionsStayGolden(t *testing.T) {
	// The FP/complex-fold extensions must preserve architectural state on
	// the FP workloads they actually transform.
	for _, name := range []string{"swaptions", "povray", "blackscholes"} {
		w, _ := workloads.ByName(name)
		cfg := IcelakeSCC(scc.LevelFull)
		cfg.SCC.EnableFPFold = true
		cfg.SCC.EnableComplexFold = true
		cfg.MaxUops = 30_000
		m, err := New(cfg, w.Program())
		if err != nil {
			t.Fatal(err)
		}
		if w.MemInit != nil {
			w.MemInit(m.Oracle.Mem)
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g := emu.New(w.Program())
		if w.MemInit != nil {
			w.MemInit(g.Mem)
		}
		g.Run(m.Oracle.UopCount)
		for r := isa.R0; r <= isa.SP; r++ {
			if a, b := m.Oracle.St.Get(r), g.St.Get(r); a != b {
				t.Errorf("%s: %s = %d, golden %d", name, r, a, b)
			}
		}
		for r := isa.F0; r <= isa.F15; r++ {
			if a, b := m.Oracle.St.Get(r), g.St.Get(r); a != b {
				t.Errorf("%s: %s bits = %d, golden %d", name, r, a, b)
			}
		}
	}
}

// TestRepeatedRunsShareNoState guards the pooled hot-path structures
// (stream buffer, IDQ/ROB rings, region and dry-run tables, issue rings):
// two fresh machines over the same inputs must produce identical stats,
// including when a different workload runs in between — any state leaking
// out of a machine, or left stale inside a pool between streams, shows up
// as a counter divergence here.
func TestRepeatedRunsShareNoState(t *testing.T) {
	run := func(name string) *Stats {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		cfg := IcelakeSCC(scc.LevelFull)
		cfg.MaxUops = 30_000
		m, err := New(cfg, w.Program())
		if err != nil {
			t.Fatal(err)
		}
		if w.MemInit != nil {
			w.MemInit(m.Oracle.Mem)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	first := run("freqmine")
	run("mcf") // interleaved different workload
	second := run("freqmine")
	if !reflect.DeepEqual(first, second) {
		t.Errorf("repeated runs diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}
