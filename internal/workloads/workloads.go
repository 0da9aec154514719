// Package workloads provides the 19 synthetic benchmark kernels standing in
// for the paper's workload selection (§VI): 11 SPEC CPU 2017 benchmarks
// (all INT except x264/omnetpp, plus the FP codes the paper discusses) and
// 8 PARSEC 3.0 benchmarks.
//
// Each kernel is written in UXA assembly and engineered to the execution
// character the paper reports for its namesake — e.g. mcf is pointer-
// chasing and memory-bound, lbm/wrf/x264 are floating-point dominated,
// xalancbmk/perlbench/freqmine are hot predictable integer loops, leela and
// swaptions are serial dependency chains, deepsjeng and streamcluster are
// wide high-ILP kernels. Figure 6/7/8 trends are driven by these classes,
// not by the specific SPEC inputs, so the class is what each kernel
// reproduces (see DESIGN.md's substitution table).
package workloads

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"sccsim/internal/asm"
	"sccsim/internal/emu"
)

// Class buckets workloads by the execution character that governs how much
// SCC helps them (the paper's analysis vocabulary).
type Class string

// Workload classes.
const (
	ClassPredictable Class = "predictable-int" // hot loops, invariant data
	ClassMoveHeavy   Class = "move-heavy"      // register-immediate move dominated
	ClassBranchy     Class = "branchy"         // control-flow dominated
	ClassMemory      Class = "memory-bound"    // cache-missing loads dominate
	ClassLowILP      Class = "low-ilp"         // serial dependency chains
	ClassHighILP     Class = "high-ilp"        // wide independent work
	ClassFP          Class = "fp-simd"         // floating-point dominated
)

// Workload is one synthetic benchmark kernel.
type Workload struct {
	Name        string
	Suite       string // "spec" or "parsec"
	Class       Class
	Description string
	Source      string
	// MemInit optionally populates data structures too large for the
	// assembler's .data section (pointer-chase rings, big tables).
	MemInit func(mem *emu.Memory)
	// DefaultMaxUops is the run length the harness uses (a SimPoint-style
	// representative interval).
	DefaultMaxUops uint64

	// prog is a registered workload's assembled program, shared by every
	// copy of the workload; nil for a workload built outside the registry.
	prog *program
}

// program assembles src once, on first use.
type program struct {
	src  string
	once sync.Once
	p    *asm.Program
}

// Program returns the kernel's assembled program. A registered workload
// is assembled once per process, and every caller shares that program and
// its decoded image, so callers must not modify it. A workload built
// outside the registry, or whose Source was changed, is assembled on each
// call.
func (w Workload) Program() *asm.Program {
	if w.prog == nil || w.Source != w.prog.src {
		return asm.MustAssemble(w.Source)
	}
	w.prog.once.Do(func() { w.prog.p = asm.MustAssemble(w.Source) })
	return w.prog.p
}

var registry []Workload

func register(w Workload) {
	if w.DefaultMaxUops == 0 {
		w.DefaultMaxUops = 200_000
	}
	w.prog = &program{src: w.Source}
	registry = append(registry, w)
}

// All returns every workload: SPEC first, then PARSEC, each alphabetical.
func All() []Workload {
	out := make([]Workload, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Suite != out[j].Suite {
			return out[i].Suite > out[j].Suite // "spec" > "parsec"
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Suite returns the workloads of one suite ("spec" or "parsec").
func Suite(name string) []Workload {
	var out []Workload
	for _, w := range All() {
		if w.Suite == name {
			out = append(out, w)
		}
	}
	return out
}

// ByName finds a workload.
func ByName(name string) (Workload, bool) {
	for _, w := range registry {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Names lists all workload names in All() order.
func Names() []string {
	var out []string
	for _, w := range All() {
		out = append(out, w.Name)
	}
	return out
}

// --- source-generation helpers ---

// lcg is a deterministic pseudo-random generator for data sections.
type lcg struct{ s uint64 }

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s >> 16
}

// wordList renders n 64-bit words produced by f as .word directives.
func wordList(n int, f func(i int) int64) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i%8 == 0 {
			if i > 0 {
				b.WriteString("\n")
			}
			b.WriteString("\t.word ")
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", f(i))
	}
	b.WriteString("\n")
	return b.String()
}

// randWords renders n pseudo-random words in [0, mod).
func randWords(n int, seed uint64, mod int64) string {
	g := &lcg{s: seed}
	return wordList(n, func(int) int64 { return int64(g.next()) % mod })
}

// stageBlocks generates n unrolled "pass stages" of hot code, each aligned
// to its own 32-byte region and wrapped in a short trip-count inner loop so
// the region crosses the compaction hotness threshold. Roughly two thirds
// of the stages are SCC-compactable (immediate chains), the rest are
// data-dependent. This gives large-footprint kernels (gcc, perlbench) a
// realistic instruction working set that pressures the micro-op cache —
// the effect Figures 7 and 10 depend on. The blocks accumulate into r2 and
// use r9 (inner counter) and r4..r6 as scratch; r7 carries loop-variant
// data in from the caller.
func stageBlocks(n int, seed uint64, exitLabel string) string {
	var b strings.Builder
	g := &lcg{s: seed}
	for i := 0; i < n; i++ {
		c1 := int64(g.next()%90 + 3)
		c2 := int64(g.next()%13 + 1)
		fmt.Fprintf(&b, "\t.align 32\nstage%d:\n\tmovi r9, 6\nsl%d:\n", i, i)
		switch g.next() % 3 {
		case 0: // fully foldable immediate chain
			fmt.Fprintf(&b, "\tmovi r4, %d\n\taddi r5, r4, %d\n\tshli r6, r5, 1\n\tadd  r2, r2, r6\n", c1, c2)
		case 1: // partially foldable (r7 is loop-variant)
			fmt.Fprintf(&b, "\tmovi r4, %d\n\txor  r5, r7, r4\n\tandi r5, r5, 255\n\tadd  r2, r2, r5\n", c1)
		default: // data-dependent (unoptimizable beyond propagation)
			fmt.Fprintf(&b, "\tshri r4, r7, %d\n\taddi r4, r4, %d\n\txor  r2, r2, r4\n\taddi r7, r7, 1\n", c2%7+1, c1)
		}
		fmt.Fprintf(&b, "\tsubi r9, r9, 1\n\tcmpi r9, 0\n\tbne  sl%d\n", i)
		// The .align before the next stage leaves an unmapped gap, so
		// each stage jumps explicitly to its successor.
		if i == n-1 {
			fmt.Fprintf(&b, "\tjmp  %s\n", exitLabel)
		} else {
			fmt.Fprintf(&b, "\tjmp  stage%d\n", i+1)
		}
	}
	return b.String()
}

// permutationRing writes a random-cycle permutation of n indices into
// memory at base (8 bytes per entry): entry i holds the address of the
// next node. Used for pointer-chasing kernels; a single cycle guarantees
// full coverage.
func permutationRing(mem *emu.Memory, base uint64, n int, stride uint64, seed uint64) {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	g := &lcg{s: seed}
	for i := n - 1; i > 0; i-- {
		j := int(g.next() % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	for k := 0; k < n; k++ {
		cur := order[k]
		next := order[(k+1)%n]
		mem.Write64(base+uint64(cur)*stride, int64(base+uint64(next)*stride))
	}
}
