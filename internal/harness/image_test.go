package harness

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"sccsim/internal/asm"
	"sccsim/internal/pipeline"
	"sccsim/internal/scc"
	"sccsim/internal/workloads"
)

// imageDigest hashes every micro-op the program's image holds.
func imageDigest(p *asm.Program) [32]byte {
	h := sha256.New()
	for _, in := range p.Insts {
		us, _ := p.Image.At(in.Addr)
		fmt.Fprintf(h, "%#x %+v\n", in.Addr, us)
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// TestProgramImageSharedAndImmutable runs a two-worker Figure 6 sweep
// and a cold then warm snapshot SimPoint estimate, under -race in make
// check, and checks that every machine of a workload ran the program
// (and decoded image) the workload assembled once, and that no run
// modified the image: concurrent workers share it, so a write would
// corrupt their runs and trip the race detector.
func TestProgramImageSharedAndImmutable(t *testing.T) {
	opts := smallOpts(t, "xalancbmk", "mcf")
	opts.MaxUops = 20_000
	opts.Parallel = 2
	progs := map[*asm.Program]int{}
	digests := map[*asm.Program][32]byte{}
	for _, w := range opts.Workloads {
		p := w.Program()
		progs[p] = 0
		digests[p] = imageDigest(p)
	}
	var mu sync.Mutex
	opts.Observe = func(m *pipeline.Machine) {
		mu.Lock()
		defer mu.Unlock()
		if _, ok := progs[m.Prog]; !ok || m.Oracle.Prog != m.Prog {
			t.Errorf("a machine runs a program its workload did not assemble")
			return
		}
		progs[m.Prog]++
	}
	if _, err := Fig6Run(opts); err != nil {
		t.Fatal(err)
	}
	for p, n := range progs {
		if n != len(scc.Levels()) {
			t.Errorf("%d fig6 machines ran the program at %p, want %d", n, p, len(scc.Levels()))
		}
	}

	w := opts.Workloads[0]
	sp := Options{MaxUops: 60_000, Parallel: 2, SnapshotDir: t.TempDir()}
	cfg := pipeline.IcelakeSCC(scc.LevelFull)
	for pass := 0; pass < 2; pass++ {
		if _, err := SimPointEstimateSnapshot(cfg, w, 10_000, 3, sp); err != nil {
			t.Fatal(err)
		}
	}

	for p, d := range digests {
		if imageDigest(p) != d {
			t.Errorf("the image of the program at %p changed during the runs", p)
		}
	}
	// Every registered workload is assembled, and its image decoded,
	// once per process: Program hands out the same program, without
	// allocating.
	for _, w := range workloads.All() {
		p := w.Program()
		if q := w.Program(); q != p || q.Image != p.Image {
			t.Errorf("%s: Program returned a second program", w.Name)
		}
		if allocs := testing.AllocsPerRun(10, func() { w.Program() }); allocs != 0 {
			t.Errorf("%s: Program allocates %.0f times per call", w.Name, allocs)
		}
	}
	for _, w := range opts.Workloads {
		if _, ok := progs[w.Program()]; !ok {
			t.Errorf("%s: Program no longer returns the program its runs used", w.Name)
		}
	}
}

// sparseSrc puts its last instruction 2^47 bytes above the rest: a code
// span of 0x7ffefffff001 bytes over three instructions.
const sparseSrc = "\tmovi r1, 7\n\tjmp far\n\t.org 0x7fff00000000\nfar:\n\thalt\n"

// TestSparseCodeRunsInBoundedMemory prepares the sparse program and runs
// it to halt: its image is sized by its three instructions, so it
// allocates about what the same program laid out densely does.
func TestSparseCodeRunsInBoundedMemory(t *testing.T) {
	run := func(src string) uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w := workloads.Workload{Name: "sparse", Source: src}
		m, err := Prepare(pipeline.IcelakeSCC(scc.LevelFull), w, Options{MaxUops: 1000})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if !m.Oracle.Halted() || st.CommittedUops != 3 {
			t.Fatalf("halted=%v after %d uops, want a halt after 3", m.Oracle.Halted(), st.CommittedUops)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	dense := run("\tmovi r1, 7\n\tjmp far\nfar:\n\thalt\n")
	sparse := run(sparseSrc)
	if sparse > 2*dense {
		t.Errorf("the sparse program allocated %d bytes, the dense one %d", sparse, dense)
	}
}
