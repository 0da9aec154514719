package pipeline

// White-box tests of the fetch state machine, redirect/squash mechanics and
// SCC integration glue.

import (
	"testing"

	"sccsim/internal/asm"
	"sccsim/internal/scc"
	"sccsim/internal/uopcache"
)

func mustMachine(t *testing.T, cfg Config, src string) *Machine {
	t.Helper()
	m, err := New(cfg, asm.MustAssemble(src))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFetchBuildsUnoptLinesOnDecode(t *testing.T) {
	cfg := Icelake()
	cfg.MaxUops = 200
	m := mustMachine(t, cfg, `
		.align 32
	start:
		movi r1, 1
		movi r2, 2
		add  r3, r1, r2
		halt
	`)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.ICacheFetches == 0 {
		t.Error("decode path must access the icache")
	}
	l := m.UC.Unopt.Peek(m.Prog.Entry)
	if l == nil {
		t.Fatal("decode path did not install a uop cache line")
	}
	if l.Slots == 0 || l.Slots > uopcache.MaxLineSlots {
		t.Errorf("line slots = %d", l.Slots)
	}
}

func TestFetchLinesAreRegionBounded(t *testing.T) {
	cfg := Icelake()
	cfg.MaxUops = 400
	// 8 movis of 6 bytes = 48 bytes: crosses one region boundary.
	m := mustMachine(t, cfg, `
		.align 32
	start:
		movi r1, 1
		movi r2, 2
		movi r3, 3
		movi r4, 4
		movi r5, 5
		movi r6, 6
		movi r7, 7
		movi r8, 8
		halt
	`)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for _, l := range m.UC.Unopt.Lines() {
		region := l.EntryPC &^ 31
		for i := range l.Uops {
			if l.Uops[i].MacroPC&^31 != region {
				t.Fatalf("line@%#x contains uop from region %#x", l.EntryPC, l.Uops[i].MacroPC&^31)
			}
		}
	}
}

func TestMispredictStallsFetchUntilResolve(t *testing.T) {
	// A data-dependent 50/50 branch: mispredicts must charge redirect
	// stall cycles.
	cfg := Icelake()
	cfg.MaxUops = 60_000
	m := mustMachine(t, cfg, `
		.data 0x100000
	tab:
		.word 1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0
		.word 0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 1, 0, 0, 1, 0
		.text
		.entry main
	main:
		movi r1, 0
		movi r2, 5000
		movi r3, tab
	loop:
		andi r4, r1, 31
		shli r4, r4, 3
		add  r4, r3, r4
		ld   r5, [r4+0]
		cmpi r5, 0
		beq  zero
		addi r6, r6, 2
		jmp  next
	zero:
		addi r6, r6, 1
	next:
		addi r1, r1, 1
		cmp  r1, r2
		bne  loop
		halt
	`)
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.BranchMispredicts == 0 {
		t.Fatal("expected mispredictions on pseudo-random directions")
	}
	if st.MispredictCycles == 0 {
		t.Error("mispredictions must charge fetch-stall cycles")
	}
	// A 32-entry fixed pattern is TAGE-learnable; late-run accuracy
	// should keep the miss count well under one per iteration.
	if st.BranchMispredicts > 5000/2 {
		t.Errorf("%d mispredicts over 5000 iterations — predictor not learning", st.BranchMispredicts)
	}
}

func TestSquashRedirectsToUnoptimizedVersion(t *testing.T) {
	// After an invariant violation, the next fetch of that PC must come
	// from the unoptimized partition (§V misspeculation recovery).
	src := `
	.data 0x100000
v:	.word 7
	.text
	.entry main
main:
	movi r1, 0
	movi r2, 3000
	movi r9, 0x100000
	jmp  loop
	.align 32
loop:
	ld   r4, [r9+0]
	addi r5, r4, 1
	add  r6, r6, r5
	cmpi r1, 1500
	bne  skip
	st   [r9+0], r1     ; invariant breaks mid-run
skip:
	addi r1, r1, 1
	cmp  r1, r2
	bne  loop
	halt
`
	cfg := IcelakeSCC(scc.LevelFull)
	cfg.MaxUops = 1 << 62
	m := mustMachine(t, cfg, src)
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.InvariantViolations == 0 {
		t.Fatal("phase change must violate at least once")
	}
	if st.SquashedUops == 0 {
		t.Error("violated streams must flush doomed uops")
	}
	if st.OptStreams == 0 {
		t.Error("streams should validate before the phase change")
	}
	// The stale line must have been penalized.
	penalized := false
	for _, l := range m.UC.Opt.Lines() {
		if l.Meta.Squashes > 0 {
			penalized = true
		}
	}
	if !penalized && len(m.UC.Opt.Lines()) > 0 {
		t.Error("no resident line carries squash history")
	}
}

func TestHotLinesTriggerCompactionRequests(t *testing.T) {
	cfg := IcelakeSCC(scc.LevelFull)
	cfg.MaxUops = 20_000
	m := mustMachine(t, cfg, hotLoop)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Unit.Stats.Requests == 0 {
		t.Error("hot loop never triggered a compaction request")
	}
	if m.Unit.Stats.Committed == 0 {
		t.Error("no compacted lines were committed")
	}
	// All locks must be released by run end.
	for _, l := range m.UC.Unopt.Lines() {
		if l.Locked {
			t.Errorf("line@%#x still locked after drain", l.EntryPC)
		}
	}
}

func TestDisabledUnitLevelsNeverCompact(t *testing.T) {
	for _, lv := range []scc.Level{scc.LevelBaseline, scc.LevelPartitioned} {
		cfg := IcelakeSCC(lv)
		cfg.MaxUops = 20_000
		m := mustMachine(t, cfg, hotLoop)
		st, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if st.UopsFromOpt != 0 || st.EliminatedUops() != 0 {
			t.Errorf("level %v streamed optimized uops", lv)
		}
	}
}

func TestIDQNeverExceedsCapacity(t *testing.T) {
	cfg := IcelakeSCC(scc.LevelFull)
	cfg.MaxUops = 30_000
	cfg.IDQSize = 16 // tiny, to stress the check
	m := mustMachine(t, cfg, hotLoop)
	// Step Run's cycle body by hand and check occupancy each cycle.
	for i := 0; i < 200_000; i++ {
		_, done, err := m.step()
		if err != nil {
			t.Fatal(err)
		}
		if m.idqSlots > cfg.IDQSize {
			t.Fatalf("IDQ occupancy %d exceeds capacity %d", m.idqSlots, cfg.IDQSize)
		}
		if done {
			break
		}
	}
}

func TestVpMatchesGatesStreaming(t *testing.T) {
	// The §V check: when the VP's current prediction diverges from the
	// stored invariant, the optimized line must not stream (no squash).
	src := `
	.data 0x100000
v:	.word 5
	.text
	.entry main
main:
	movi r1, 0
	movi r2, 4000
	movi r9, 0x100000
	jmp  loop
	.align 32
loop:
	ld   r4, [r9+0]
	addi r5, r4, 1
	add  r6, r6, r5
	andi r7, r1, 63
	cmpi r7, 63
	bne  skip
	addi r8, r4, 1
	st   [r9+0], r8     ; slow drift: value changes every 64 iterations
skip:
	addi r1, r1, 1
	cmp  r1, r2
	bne  loop
	halt
`
	cfg := IcelakeSCC(scc.LevelFull)
	cfg.MaxUops = 1 << 62
	m := mustMachine(t, cfg, src)
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	// With drift every 64 iterations, the VP-state check should catch
	// most stale streams before they squash: violations must stay well
	// below the number of drift events (~62).
	if st.InvariantViolations > 40 {
		t.Errorf("violations = %d — VP-state gate not filtering stale streams", st.InvariantViolations)
	}
}

func TestStatsFetchMixAccounting(t *testing.T) {
	cfg := IcelakeSCC(scc.LevelFull)
	cfg.MaxUops = 40_000
	m := mustMachine(t, cfg, hotLoop)
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	total := st.TotalFetchedSlots()
	if total == 0 {
		t.Fatal("no fetch accounting")
	}
	// Fetched slots ≈ committed slots + squashed work; they must be in
	// the same ballpark (no double counting).
	if total > st.CommittedSlots+st.SquashedUops+1000 {
		t.Errorf("fetched %d slots but committed only %d", total, st.CommittedSlots)
	}
}
