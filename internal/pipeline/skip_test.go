package pipeline

// Tests of Run's quiet-cycle skip: it must be invisible. Every statistic,
// sample, trace record and snapshot byte equals the per-cycle reference
// path (Machine.perCycle), and the progress guard still trips at its
// cycle.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"strings"
	"testing"

	"sccsim/internal/scc"
	"sccsim/internal/workloads"
)

// observed is everything a run exposes to its observers.
type observed struct {
	stats     []Stats  // Stats at each stop
	snaps     [][]byte // Snapshot() at each stop
	samples   []Stats  // every sample-hook call, in order
	traces    int      // UopTrace records delivered
	traceHash uint64   // hash of every record, in delivery order
	cycles    uint64   // CycleCounts at the end
	skipped   uint64
}

// appendTrace encodes every field of a lifecycle record.
func appendTrace(b []byte, tr *UopTrace) []byte {
	for _, v := range []uint64{tr.ID, tr.PC, uint64(tr.Seq), uint64(tr.Source),
		uint64(boolToInt(tr.Doomed)), tr.FetchCycle, tr.DecodeCycle,
		tr.RenameCycle, tr.IssueCycle, tr.CompleteCycle, tr.CommitCycle} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return append(b, tr.Disasm...)
}

// traceSeed keys the trace hashes, so they compare within one process.
var traceSeed = maphash.MakeSeed()

// workloadMachine builds a machine for w under cfg, its memory seeded.
func workloadMachine(t *testing.T, w workloads.Workload, cfg Config) *Machine {
	t.Helper()
	m, err := New(cfg, w.Program())
	if err != nil {
		t.Fatal(err)
	}
	if w.MemInit != nil {
		w.MemInit(m.Oracle.Mem)
	}
	return m
}

// observe runs w under cfg to a third, two thirds and all of its default
// budget, re-entering Run at each stop as the SimPoint walks do, with
// the sample and trace hooks attached.
func observe(t *testing.T, w workloads.Workload, cfg Config, perCycle bool) observed {
	t.Helper()
	m := workloadMachine(t, w, cfg)
	m.perCycle = perCycle
	var o observed
	m.SetSampleHook(5000, func(s Stats) { o.samples = append(o.samples, s) })
	var h maphash.Hash
	h.SetSeed(traceSeed)
	var buf []byte
	m.SetUopTraceHook(func(tr *UopTrace) {
		buf = appendTrace(buf[:0], tr)
		h.Write(buf)
		o.traces++
	})
	for i := uint64(1); i <= 3; i++ {
		m.Cfg.MaxUops = i * w.DefaultMaxUops / 3
		st, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		data, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		o.stats = append(o.stats, *st)
		o.snaps = append(o.snaps, data)
	}
	o.traceHash = h.Sum64()
	o.cycles, o.skipped = m.CycleCounts()
	return o
}

// smallLSQ is an LSQ size at which lbm's dispatch blocks on the LSQ.
const smallLSQ = 8

// TestQuietSkipMatchesPerCycle runs every workload under the Icelake
// baseline and full SCC, plus xalancbmk with the optimized partition's
// decay period at both ends of the range the ablation sweeps and lbm
// with a small LSQ, on the skipping and the per-cycle paths, and
// requires identical observations. Each subtest runs on one goroutine,
// so the race detector has nothing to find here: under it, only
// xalancbmk and mcf of the 19 workloads run, which keeps the package's
// -race run near a minute instead of five.
func TestQuietSkipMatchesPerCycle(t *testing.T) {
	type run struct {
		name string
		w    workloads.Workload
		cfg  Config
	}
	var runs []run
	for _, w := range workloads.All() {
		if raceEnabled && w.Name != "xalancbmk" && w.Name != "mcf" {
			continue
		}
		runs = append(runs,
			run{w.Name + "/icelake", w, Icelake()},
			run{w.Name + "/scc-full", w, IcelakeSCC(scc.LevelFull)})
	}
	xal, _ := workloads.ByName("xalancbmk")
	for _, d := range []int{1, 28} {
		cfg := IcelakeSCC(scc.LevelFull)
		cfg.UC.OptDecay = d
		runs = append(runs, run{fmt.Sprintf("xalancbmk/scc-full-optdecay%d", d), xal, cfg})
	}
	// No workload fills the default LSQ. A small one makes lbm's dispatch
	// block on it while the ROB head completes later than some load, so
	// only the LSQ release can end those skips.
	lbm, _ := workloads.ByName("lbm")
	lsq := Icelake()
	lsq.LSQSize = smallLSQ
	runs = append(runs, run{fmt.Sprintf("lbm/icelake-lsq%d", smallLSQ), lbm, lsq})
	for _, r := range runs {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			skip := observe(t, r.w, r.cfg, false)
			ref := observe(t, r.w, r.cfg, true)
			if skip.skipped == 0 || ref.skipped != 0 {
				t.Fatalf("skipped %d cycles skipping and %d per cycle; want some and none", skip.skipped, ref.skipped)
			}
			if r.cfg.LSQSize == smallLSQ && ref.stats[2].CPIBackendLSQ == 0 {
				t.Fatal("dispatch never blocked on the small LSQ")
			}
			if skip.cycles != ref.cycles {
				t.Errorf("cycles advanced: %d skipping, %d per cycle", skip.cycles, ref.cycles)
			}
			for i := range ref.stats {
				if skip.stats[i] != ref.stats[i] {
					t.Fatalf("stop %d: Stats differ\nskipping  %+v\nper cycle %+v", i+1, skip.stats[i], ref.stats[i])
				}
				if !bytes.Equal(skip.snaps[i], ref.snaps[i]) {
					t.Fatalf("stop %d: snapshot bytes differ", i+1)
				}
			}
			if len(skip.samples) != len(ref.samples) {
				t.Fatalf("%d samples skipping, %d per cycle", len(skip.samples), len(ref.samples))
			}
			for i := range ref.samples {
				if skip.samples[i] != ref.samples[i] {
					t.Fatalf("sample %d differs\nskipping  %+v\nper cycle %+v", i, skip.samples[i], ref.samples[i])
				}
			}
			if skip.traces != ref.traces || skip.traceHash != ref.traceHash {
				t.Fatalf("trace records differ: %d (hash %#x) skipping, %d (hash %#x) per cycle",
					skip.traces, skip.traceHash, ref.traces, ref.traceHash)
			}
		})
	}
}

// TestProgressGuardTrips: with no ROB entries nothing ever dispatches,
// so Run must give up exactly progressLimit+1 cycles in — the skip may
// jump up to the guard but never past it — with the same Stats on both
// paths.
func TestProgressGuardTrips(t *testing.T) {
	for _, wname := range []string{"xalancbmk", "mcf"} {
		w, ok := workloads.ByName(wname)
		if !ok {
			t.Fatalf("unknown workload %q", wname)
		}
		for _, c := range []struct {
			name string
			cfg  Config
		}{{"icelake", Icelake()}, {"scc-full", IcelakeSCC(scc.LevelFull)}} {
			t.Run(wname+"/"+c.name, func(t *testing.T) {
				cfg := c.cfg
				cfg.ROBSize = 0
				cfg.MaxUops = w.DefaultMaxUops
				var stats [2]Stats
				for i, perCycle := range []bool{false, true} {
					m := workloadMachine(t, w, cfg)
					m.perCycle = perCycle
					_, err := m.Run()
					if err == nil || !strings.Contains(err.Error(), "no commit progress for 100000 cycles at cycle 100001 ") {
						t.Fatalf("perCycle=%v: err = %v, want the progress guard at cycle 100001", perCycle, err)
					}
					if _, skipped := m.CycleCounts(); perCycle == (skipped > 0) {
						t.Fatalf("perCycle=%v: skipped %d cycles", perCycle, skipped)
					}
					stats[i] = m.Stats
				}
				if stats[0] != stats[1] {
					t.Errorf("Stats differ\nskipping  %+v\nper cycle %+v", stats[0], stats[1])
				}
			})
		}
	}
}
