// SCC journal tests: exact reconciliation of the opt-report against the
// simulator's own counters, squash forensics attribution, and the golden
// report renderings. The pure-tap property is pinned with the other taps
// by harness.TestPureTaps.
package obs_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sccsim/internal/asm"
	"sccsim/internal/harness"
	"sccsim/internal/obs"
	"sccsim/internal/pipeline"
	"sccsim/internal/scc"
	"sccsim/internal/workloads"
)

// runJournaled runs a workload with the journal aggregator attached.
func runJournaled(t *testing.T, name string, maxUops uint64) *harness.RunResult {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	res, err := harness.RunOne(pipeline.IcelakeSCC(scc.LevelFull), w,
		harness.Options{MaxUops: maxUops, Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.OptReport == nil {
		t.Fatal("Journal option set but OptReport is nil")
	}
	return res
}

// TestOptReportReconciles pins the report's accounting against the
// simulator's own counters: every total the aggregator derives from the
// event stream must equal the corresponding scc.UnitStats or
// pipeline.Stats value the simulation counted independently.
func TestOptReportReconciles(t *testing.T) {
	res := runJournaled(t, "xalancbmk", 30_000)
	rep, u, st := res.OptReport, res.Unit, res.Stats

	// Request stream vs the unit's request counters.
	if rep.Requests.Accepted != u.Requests {
		t.Errorf("accepted %d != UnitStats.Requests %d", rep.Requests.Accepted, u.Requests)
	}
	if got := rep.Requests.RejectedQueueFull + rep.Requests.RejectedDuplicate; got != u.Rejected {
		t.Errorf("queue-full+duplicate %d != UnitStats.Rejected %d", got, u.Rejected)
	}
	if rep.Requests.RejectedDisabled != u.RejectedDisabled {
		t.Errorf("disabled %d != UnitStats.RejectedDisabled %d",
			rep.Requests.RejectedDisabled, u.RejectedDisabled)
	}

	// Job stream vs the unit's outcome counters.
	if rep.Jobs.Jobs != u.Jobs || rep.Jobs.Committed != u.Committed ||
		rep.Jobs.Discarded != u.Discarded || rep.Jobs.Aborted != u.Aborted {
		t.Errorf("job totals %+v != unit %d/%d/%d/%d",
			rep.Jobs, u.Jobs, u.Committed, u.Discarded, u.Aborted)
	}
	if rep.Jobs.BusyCycles != u.BusyCycles {
		t.Errorf("busy cycles %d != UnitStats.BusyCycles %d", rep.Jobs.BusyCycles, u.BusyCycles)
	}

	// Per-transform remark counts vs the unit's static counters.
	static := map[string]uint64{}
	for _, tr := range rep.Transforms {
		static[tr.Kind] = tr.Static
	}
	for kind, want := range map[string]uint64{
		scc.TransformMoveElim.String():   u.ElimMove,
		scc.TransformFold.String():       u.ElimFold,
		scc.TransformProp.String():       u.Propagated,
		scc.TransformBranchFold.String(): u.ElimBranch,
		scc.TransformDCE.String():        u.ElimDead,
		scc.TransformDataInv.String():    u.DataInvariants,
		scc.TransformCtrlInv.String():    u.CtrlInvariants,
	} {
		if static[kind] != want {
			t.Errorf("static %s = %d, unit counted %d", kind, static[kind], want)
		}
	}
	if u.ElimMove+u.ElimFold == 0 {
		t.Error("run produced no eliminations — reconciliation vacuous")
	}

	// Select stream vs the pipeline's stream counters: every optimized
	// verdict ends as either a validated stream or a squash.
	if want := st.OptStreams + st.OptStreamsSquashed; rep.Select.FromOpt != want {
		t.Errorf("from-opt verdicts %d != OptStreams+OptStreamsSquashed %d",
			rep.Select.FromOpt, want)
	}
	if rep.Select.Verdicts != rep.Select.FromOpt+rep.Select.FromUnopt+rep.Select.ForcedUnopt {
		t.Errorf("verdicts %d don't partition into %d opt + %d unopt + %d forced",
			rep.Select.Verdicts, rep.Select.FromOpt, rep.Select.FromUnopt, rep.Select.ForcedUnopt)
	}

	// Squash stream vs the pipeline's violation counters.
	if rep.Squash.Squashes != st.InvariantViolations {
		t.Errorf("squashes %d != InvariantViolations %d",
			rep.Squash.Squashes, st.InvariantViolations)
	}
	if rep.Squash.DataInv+rep.Squash.CtrlInv != rep.Squash.Squashes {
		t.Errorf("squash kinds %d+%d don't sum to %d",
			rep.Squash.DataInv, rep.Squash.CtrlInv, rep.Squash.Squashes)
	}
	// Doomed uops are recorded at squash time; SquashedUops counts them
	// draining through the ROB, so in-flight uops at run end only ever
	// make the journal figure larger.
	if rep.Squash.DoomedUops < st.SquashedUops {
		t.Errorf("journal doomed uops %d < pipeline squashed uops %d",
			rep.Squash.DoomedUops, st.SquashedUops)
	}

	// Dynamic wins vs the pipeline's per-kind elimination counters: wins
	// attribute each validated stream's eliminations to the planting job.
	wins := map[string]uint64{}
	for _, tr := range rep.Transforms {
		wins[tr.Kind] = tr.DynWins
	}
	for kind, want := range map[string]uint64{
		scc.TransformMoveElim.String():   st.ElimMove,
		scc.TransformFold.String():       st.ElimFold,
		scc.TransformProp.String():       st.Propagated,
		scc.TransformBranchFold.String(): st.ElimBranch,
		scc.TransformDCE.String():        st.ElimDead,
	} {
		if wins[kind] != want {
			t.Errorf("dyn-wins %s = %d, pipeline counted %d", kind, wins[kind], want)
		}
	}

	// The headline number: uops the report claims saved must equal the
	// pipeline's dynamically eliminated uop count exactly.
	if rep.UopsSaved != st.EliminatedUops() {
		t.Errorf("report UopsSaved %d != Stats.EliminatedUops %d",
			rep.UopsSaved, st.EliminatedUops())
	}

	// Per-line totals must re-sum to the run totals.
	var lineSaved, lineStreams, lineSquash uint64
	all := map[uint64]bool{}
	for _, l := range append(append([]obs.LineReport{}, rep.TopBySaved...), rep.TopBySquash...) {
		if all[l.PC] {
			continue
		}
		all[l.PC] = true
		lineSaved += l.UopsSaved
		lineStreams += l.OptStreams
		lineSquash += l.Squashes
	}
	if lineSaved > rep.UopsSaved {
		t.Errorf("top lines save %d > run total %d", lineSaved, rep.UopsSaved)
	}
	if rep.Lines >= len(rep.TopBySaved) && rep.Lines <= 10 && lineSaved != rep.UopsSaved {
		// With every line listed the per-line sums must be exact.
		t.Errorf("all %d lines listed but saved sum %d != total %d",
			rep.Lines, lineSaved, rep.UopsSaved)
	}
	if lineStreams > rep.Select.FromOpt || lineSquash > rep.Squash.Squashes {
		t.Errorf("line sums exceed totals: streams %d/%d squashes %d/%d",
			lineStreams, rep.Select.FromOpt, lineSquash, rep.Squash.Squashes)
	}

	// The manifest summary block mirrors the report.
	sum := rep.Summary()
	if sum.UopsSaved != rep.UopsSaved || sum.Squashes != rep.Squash.Squashes ||
		sum.Lines != rep.Lines || sum.OptStream != rep.Select.FromOpt {
		t.Errorf("summary %+v diverges from report", sum)
	}
	if len(rep.TopBySaved) > 0 && sum.TopLinePC != rep.TopBySaved[0].PC {
		t.Errorf("summary top line %#x != report %#x", sum.TopLinePC, rep.TopBySaved[0].PC)
	}
}

// squashSrc forces a mid-run phase change: the stored value invariant for
// v breaks at iteration 1500, so the compacted line must squash (the
// machine_test.go misspeculation-recovery scenario, observed here through
// the journal instead of the stats).
const squashSrc = `
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

// TestSquashForensics: every squash must be attributed back to the
// planting job — job id, transform kind, in-class invariant index, and
// the confidence trajectory from planting to violation.
func TestSquashForensics(t *testing.T) {
	cfg := pipeline.IcelakeSCC(scc.LevelFull)
	cfg.MaxUops = 1 << 62
	m, err := pipeline.New(cfg, asm.MustAssemble(squashSrc))
	if err != nil {
		t.Fatal(err)
	}
	agg := obs.NewJournalAggregator()
	agg.Attach(m)
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.InvariantViolations == 0 {
		t.Fatal("phase change must violate at least once")
	}
	rep := agg.Report("squash-forensics")
	if rep.Squash.Squashes != st.InvariantViolations {
		t.Fatalf("journal saw %d squashes, pipeline counted %d",
			rep.Squash.Squashes, st.InvariantViolations)
	}
	if len(rep.Forensics) == 0 {
		t.Fatal("no forensic records for a squashing run")
	}
	for i, f := range rep.Forensics {
		if f.JobID == 0 {
			t.Errorf("forensic %d: no planting job id", i)
		}
		if f.Kind != scc.TransformDataInv.String() && f.Kind != scc.TransformCtrlInv.String() {
			t.Errorf("forensic %d: kind %q is not an invariant transform", i, f.Kind)
		}
		if f.InvIdx < 0 {
			t.Errorf("forensic %d: invariant index %d", i, f.InvIdx)
		}
		if f.ConfAtPlant <= 0 {
			t.Errorf("forensic %d: confidence at planting %d — planting context lost",
				i, f.ConfAtPlant)
		}
		if f.Kind == scc.TransformDataInv.String() && f.Predicted == f.Observed {
			t.Errorf("forensic %d: data violation with predicted == observed == %d",
				i, f.Predicted)
		}
		if f.PenaltyCycles != cfg.RedirectLatency {
			t.Errorf("forensic %d: penalty %d != RedirectLatency %d",
				i, f.PenaltyCycles, cfg.RedirectLatency)
		}
		if f.DoomedUops <= 0 {
			t.Errorf("forensic %d: no doomed uops recorded", i)
		}
		if f.SrcPC == 0 {
			t.Errorf("forensic %d: no prediction-source pc", i)
		}
	}
	if len(rep.TopBySquash) == 0 {
		t.Error("squashing run has no top-by-squash ranking")
	}
	// The forensic records must agree with the per-line squash totals.
	var bySquash uint64
	for _, l := range rep.TopBySquash {
		bySquash += l.Squashes
	}
	if bySquash != rep.Squash.Squashes {
		t.Errorf("top-by-squash lines carry %d squashes, run total %d",
			bySquash, rep.Squash.Squashes)
	}
}

// TestOptReportGolden pins both renderings of the report byte-for-byte.
// Regenerate with `go test ./internal/obs -run OptReportGolden -update`.
func TestOptReportGolden(t *testing.T) {
	rep := runJournaled(t, "xalancbmk", 20_000).OptReport
	renderings := map[string]func() []byte{
		"optreport_xalancbmk.golden.txt": func() []byte {
			var buf bytes.Buffer
			if err := rep.WriteText(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		},
		"optreport_xalancbmk.golden.json": func() []byte {
			var buf bytes.Buffer
			if err := rep.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		},
	}
	for name, render := range renderings {
		got := render()
		golden := filepath.Join("testdata", name)
		if *update {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("opt-report diverged from golden %s (regenerate with -update if intended)\n--- got ---\n%s",
				golden, got)
		}
	}
	// The JSON rendering must round-trip.
	var back obs.SCCReport
	if err := json.Unmarshal(renderings["optreport_xalancbmk.golden.json"](), &back); err != nil {
		t.Fatalf("report JSON does not parse back: %v", err)
	}
	if back.UopsSaved != rep.UopsSaved || back.Jobs != rep.Jobs {
		t.Errorf("report did not survive the JSON round trip")
	}
}

// TestWriteOptReportPaths covers the CLI writing modes: .json selects the
// JSON encoding, any other path the text rendering.
func TestWriteOptReportPaths(t *testing.T) {
	rep := runJournaled(t, "xalancbmk", 10_000).OptReport
	dir := t.TempDir()

	jsonPath := filepath.Join(dir, "report.json")
	if err := obs.WriteOptReport(rep, jsonPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var back obs.SCCReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf(".json path did not produce JSON: %v", err)
	}

	txtPath := filepath.Join(dir, "report.txt")
	if err := obs.WriteOptReport(rep, txtPath); err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(txtPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(text, []byte("SCC optimization report")) {
		t.Errorf("text path did not produce the text rendering:\n%s", text)
	}
}

// TestVersionString: the shared -version banner names the tool and the
// simulator version.
func TestVersionString(t *testing.T) {
	got := obs.VersionString("sccsim")
	for _, frag := range []string{"sccsim ", obs.Version, "schema"} {
		if !strings.Contains(got, frag) {
			t.Errorf("VersionString = %q, missing %q", got, frag)
		}
	}
}
