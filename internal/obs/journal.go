package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"sccsim/internal/pipeline"
	"sccsim/internal/scc"
)

// JournalAggregator folds the SCC journal event stream (scc.Journal) into
// a per-static-line optimization report: which lines the unit compacted,
// which transforms fired, how often each compacted line streamed versus
// squashed, and the forensic record of every invariant-violation squash.
// It is the consumer side of the journal tap — attach it before Run, then
// build the report with Report() after the run finishes.
type JournalAggregator struct {
	requests [4]uint64 // indexed by scc.RequestOutcome

	jobsTotal  uint64
	committed  uint64
	discarded  uint64
	aborted    uint64
	busyCycles uint64

	staticByKind [scc.NumTransformKinds]uint64

	verdicts    uint64
	fromOpt     uint64
	fromUnopt   uint64
	forcedUnopt uint64
	candidates  uint64
	gateTrips   uint64

	squashes      uint64
	squashByKind  [scc.NumTransformKinds]uint64
	doomedUops    uint64
	penaltyCycles uint64

	lines map[uint64]*lineAgg
	jobs  map[uint64]*jobAgg

	forensics        []Forensic
	forensicsDropped uint64
}

// forensicsCap bounds the retained squash-forensics list; per-line and
// per-transform aggregates stay exact past the cap, only the event-level
// detail rows are dropped (and counted).
const forensicsCap = 1000

// topN bounds the per-ranking line lists in the report.
const topN = 10

type jobAgg struct {
	id        uint64
	pc        uint64
	committed bool
	abort     scc.AbortReason
	cycles    int

	staticByKind [scc.NumTransformKinds]uint64

	selects      uint64 // optimized-partition streams of this job's line
	squashes     uint64
	squashCycles uint64
	doomed       uint64
}

// savedPerStream is the micro-ops a validated stream of this job avoids
// fetching: the transforms that remove micro-ops outright (propagation
// rewrites operands but removes nothing; invariant plants retain the uop).
func (j *jobAgg) savedPerStream() uint64 {
	return j.staticByKind[scc.TransformMoveElim] +
		j.staticByKind[scc.TransformFold] +
		j.staticByKind[scc.TransformBranchFold] +
		j.staticByKind[scc.TransformDCE]
}

func (j *jobAgg) validated() uint64 {
	if j.squashes > j.selects {
		return 0
	}
	return j.selects - j.squashes
}

type lineAgg struct {
	pc        uint64
	requests  [4]uint64
	unoptSel  uint64
	forced    uint64
	gateTrips uint64
	jobIDs    []uint64
}

// NewJournalAggregator returns an empty aggregator.
func NewJournalAggregator() *JournalAggregator {
	return &JournalAggregator{
		lines: make(map[uint64]*lineAgg),
		jobs:  make(map[uint64]*jobAgg),
	}
}

// Hooks returns the scc.Journal hook bundle feeding this aggregator.
func (a *JournalAggregator) Hooks() *scc.Journal {
	return &scc.Journal{
		Request: a.onRequest,
		Job:     a.onJob,
		Select:  a.onSelect,
		Squash:  a.onSquash,
	}
}

// Attach wires the aggregator into a machine's journal tap.
func (a *JournalAggregator) Attach(m *pipeline.Machine) { m.SetSCCJournal(a.Hooks()) }

func (a *JournalAggregator) line(pc uint64) *lineAgg {
	l := a.lines[pc]
	if l == nil {
		l = &lineAgg{pc: pc}
		a.lines[pc] = l
	}
	return l
}

func (a *JournalAggregator) onRequest(ev scc.RequestEvent) {
	if int(ev.Outcome) < len(a.requests) {
		a.requests[ev.Outcome]++
		a.line(ev.PC).requests[ev.Outcome]++
	}
}

func (a *JournalAggregator) onJob(ev scc.JobEvent) {
	a.jobsTotal++
	a.busyCycles += uint64(ev.Cycles)
	switch {
	case ev.Committed:
		a.committed++
	case ev.Abort == scc.AbortNoShrinkage || ev.Abort == scc.AbortWriteBuffer:
		a.discarded++
	default:
		a.aborted++
	}
	j := &jobAgg{id: ev.JobID, pc: ev.PC, committed: ev.Committed,
		abort: ev.Abort, cycles: ev.Cycles}
	for _, r := range ev.Remarks {
		if int(r.Kind) < len(j.staticByKind) {
			j.staticByKind[r.Kind]++
			a.staticByKind[r.Kind]++
		}
	}
	a.jobs[ev.JobID] = j
	l := a.line(ev.PC)
	l.jobIDs = append(l.jobIDs, ev.JobID)
}

func (a *JournalAggregator) onSelect(ev scc.SelectEvent) {
	a.verdicts++
	a.candidates += uint64(ev.Candidates)
	a.gateTrips += uint64(ev.GateTrips)
	l := a.line(ev.PC)
	l.gateTrips += uint64(ev.GateTrips)
	switch {
	case ev.FromOpt:
		a.fromOpt++
		if j := a.jobs[ev.JobID]; j != nil {
			j.selects++
		}
	case ev.ForcedUnopt:
		a.forcedUnopt++
		l.forced++
	default:
		a.fromUnopt++
		l.unoptSel++
	}
}

func (a *JournalAggregator) onSquash(ev scc.SquashEvent) {
	a.squashes++
	if int(ev.Kind) < len(a.squashByKind) {
		a.squashByKind[ev.Kind]++
	}
	a.doomedUops += uint64(ev.DoomedUops)
	a.penaltyCycles += uint64(ev.PenaltyCycles)
	if j := a.jobs[ev.JobID]; j != nil {
		j.squashes++
		j.squashCycles += uint64(ev.PenaltyCycles)
		j.doomed += uint64(ev.DoomedUops)
	}
	if len(a.forensics) < forensicsCap {
		a.forensics = append(a.forensics, Forensic{
			Cycle: ev.Cycle, PC: ev.PC, JobID: ev.JobID,
			Kind: ev.Kind.String(), InvIdx: ev.InvIdx, SrcPC: ev.SrcPC,
			ConfAtPlant: ev.ConfAtPlant, ConfAtViol: ev.ConfAtViol,
			Predicted: ev.Predicted, Observed: ev.Observed,
			PredictedTaken: ev.PredictedTaken, ObservedTaken: ev.ObservedTaken,
			DoomedUops: ev.DoomedUops, PenaltyCycles: ev.PenaltyCycles,
		})
	} else {
		a.forensicsDropped++
	}
}

// Forensic is one squash's forensic record: the violated invariant
// attributed back to the job and transform that planted it.
type Forensic struct {
	Cycle          uint64 `json:"cycle"`
	PC             uint64 `json:"pc"`
	JobID          uint64 `json:"job_id"`
	Kind           string `json:"kind"`
	InvIdx         int    `json:"inv_idx"`
	SrcPC          uint64 `json:"src_pc"`
	ConfAtPlant    int    `json:"conf_at_plant"`
	ConfAtViol     int    `json:"conf_at_viol"`
	Predicted      int64  `json:"predicted"`
	Observed       int64  `json:"observed"`
	PredictedTaken bool   `json:"predicted_taken,omitempty"`
	ObservedTaken  bool   `json:"observed_taken,omitempty"`
	DoomedUops     int    `json:"doomed_uops"`
	PenaltyCycles  int    `json:"penalty_cycles"`
}

// RequestTotals tallies Unit.Request outcomes.
type RequestTotals struct {
	Accepted          uint64 `json:"accepted"`
	RejectedQueueFull uint64 `json:"rejected_queue_full"`
	RejectedDuplicate uint64 `json:"rejected_duplicate"`
	RejectedDisabled  uint64 `json:"rejected_disabled"`
}

// JobTotals tallies compaction-job outcomes.
type JobTotals struct {
	Jobs       uint64 `json:"jobs"`
	Committed  uint64 `json:"committed"`
	Discarded  uint64 `json:"discarded"`
	Aborted    uint64 `json:"aborted"`
	BusyCycles uint64 `json:"busy_cycles"`
}

// SelectTotals tallies fetch-time streaming verdicts.
type SelectTotals struct {
	Verdicts    uint64 `json:"verdicts"`
	FromOpt     uint64 `json:"from_opt"`
	FromUnopt   uint64 `json:"from_unopt"`
	ForcedUnopt uint64 `json:"forced_unopt"`
	Candidates  uint64 `json:"candidates"`
	GateTrips   uint64 `json:"gate_trips"`
}

// SquashTotals tallies invariant-violation squashes.
type SquashTotals struct {
	Squashes      uint64 `json:"squashes"`
	DataInv       uint64 `json:"data_inv"`
	CtrlInv       uint64 `json:"ctrl_inv"`
	DoomedUops    uint64 `json:"doomed_uops"`
	PenaltyCycles uint64 `json:"penalty_cycles"`
}

// TransformTally is one transform kind's win/loss record. Static counts
// remarks across all jobs (committed or not) and reconciles with the
// corresponding scc.UnitStats counter. DynWins counts the transform's
// applications in validated streams (reconciling with pipeline.Stats
// Elim*); DynLosses counts applications re-fetched because their stream
// squashed — for the invariant kinds, the violations of that kind.
type TransformTally struct {
	Kind      string `json:"kind"`
	Static    uint64 `json:"static"`
	DynWins   uint64 `json:"dyn_wins"`
	DynLosses uint64 `json:"dyn_losses"`
}

// ElimByKind is a per-line static elimination census.
type ElimByKind struct {
	Move    uint64 `json:"move"`
	Fold    uint64 `json:"fold"`
	Prop    uint64 `json:"prop"`
	Branch  uint64 `json:"branch"`
	Dead    uint64 `json:"dead"`
	DataInv uint64 `json:"data_inv"`
	CtrlInv uint64 `json:"ctrl_inv"`
}

// LineReport is one static line's aggregated journal record, summed over
// every compaction job that targeted its entry PC.
type LineReport struct {
	PC           uint64     `json:"pc"`
	Requests     uint64     `json:"requests"` // accepted
	Rejected     uint64     `json:"rejected"` // queue-full + duplicate
	Jobs         uint64     `json:"jobs"`
	Committed    uint64     `json:"committed"`
	StaticElim   ElimByKind `json:"static_elim"`
	OptStreams   uint64     `json:"opt_streams"`
	Validated    uint64     `json:"validated"`
	Squashes     uint64     `json:"squashes"`
	UopsSaved    uint64     `json:"uops_saved"`
	GateTrips    uint64     `json:"gate_trips"`
	SquashCycles uint64     `json:"squash_cycles"`
	DoomedUops   uint64     `json:"doomed_uops"`
}

// SCCReport is the full optimization report: run-level totals, per-
// transform win/loss tallies, the top-N line rankings, and the squash
// forensics. All slices are deterministically ordered, so the JSON
// encoding is byte-stable.
type SCCReport struct {
	SimVersion string `json:"sim_version"`
	Workload   string `json:"workload,omitempty"`

	Requests   RequestTotals    `json:"requests"`
	Jobs       JobTotals        `json:"jobs"`
	Transforms []TransformTally `json:"transforms"`
	Select     SelectTotals     `json:"select"`
	Squash     SquashTotals     `json:"squash"`

	// UopsSaved is Σ over jobs of validated-streams × micro-ops the job
	// eliminated — the dynamic fetch reduction the journal attributes.
	UopsSaved uint64 `json:"uops_saved"`
	// Lines is the number of static lines with any journal activity.
	Lines int `json:"lines"`

	TopBySaved  []LineReport `json:"top_by_saved"`
	TopBySquash []LineReport `json:"top_by_squash,omitempty"`

	Forensics        []Forensic `json:"forensics,omitempty"`
	ForensicsDropped uint64     `json:"forensics_dropped,omitempty"`
}

// Report builds the aggregated optimization report. workload labels the
// report (may be empty).
func (a *JournalAggregator) Report(workload string) *SCCReport {
	r := &SCCReport{
		SimVersion: Version,
		Workload:   workload,
		Requests: RequestTotals{
			Accepted:          a.requests[scc.ReqAccepted],
			RejectedQueueFull: a.requests[scc.ReqRejectedQueueFull],
			RejectedDuplicate: a.requests[scc.ReqRejectedDuplicate],
			RejectedDisabled:  a.requests[scc.ReqRejectedDisabled],
		},
		Jobs: JobTotals{
			Jobs: a.jobsTotal, Committed: a.committed,
			Discarded: a.discarded, Aborted: a.aborted,
			BusyCycles: a.busyCycles,
		},
		Select: SelectTotals{
			Verdicts: a.verdicts, FromOpt: a.fromOpt, FromUnopt: a.fromUnopt,
			ForcedUnopt: a.forcedUnopt, Candidates: a.candidates,
			GateTrips: a.gateTrips,
		},
		Squash: SquashTotals{
			Squashes:      a.squashes,
			DataInv:       a.squashByKind[scc.TransformDataInv],
			CtrlInv:       a.squashByKind[scc.TransformCtrlInv],
			DoomedUops:    a.doomedUops,
			PenaltyCycles: a.penaltyCycles,
		},
		Forensics:        a.forensics,
		ForensicsDropped: a.forensicsDropped,
	}

	// Per-transform win/loss tallies.
	var wins, losses [scc.NumTransformKinds]uint64
	// order-independent: integer sums
	for _, j := range a.jobs {
		v := j.validated()
		for k := 0; k < scc.NumTransformKinds; k++ {
			wins[k] += v * j.staticByKind[k]
			losses[k] += j.squashes * j.staticByKind[k]
		}
	}
	losses[scc.TransformDataInv] = a.squashByKind[scc.TransformDataInv]
	losses[scc.TransformCtrlInv] = a.squashByKind[scc.TransformCtrlInv]
	for k := 0; k < scc.NumTransformKinds; k++ {
		r.Transforms = append(r.Transforms, TransformTally{
			Kind: scc.TransformKind(k).String(), Static: a.staticByKind[k],
			DynWins: wins[k], DynLosses: losses[k],
		})
	}

	// Per-line reports.
	reports := make([]LineReport, 0, len(a.lines))
	// order-independent: integer sums, and the reports are sorted below with ties broken by PC
	for pc, l := range a.lines {
		lr := LineReport{
			PC:        pc,
			Requests:  l.requests[scc.ReqAccepted],
			Rejected:  l.requests[scc.ReqRejectedQueueFull] + l.requests[scc.ReqRejectedDuplicate],
			GateTrips: l.gateTrips,
		}
		for _, id := range l.jobIDs {
			j := a.jobs[id]
			if j == nil {
				continue
			}
			lr.Jobs++
			if j.committed {
				lr.Committed++
			}
			lr.StaticElim.Move += j.staticByKind[scc.TransformMoveElim]
			lr.StaticElim.Fold += j.staticByKind[scc.TransformFold]
			lr.StaticElim.Prop += j.staticByKind[scc.TransformProp]
			lr.StaticElim.Branch += j.staticByKind[scc.TransformBranchFold]
			lr.StaticElim.Dead += j.staticByKind[scc.TransformDCE]
			lr.StaticElim.DataInv += j.staticByKind[scc.TransformDataInv]
			lr.StaticElim.CtrlInv += j.staticByKind[scc.TransformCtrlInv]
			lr.OptStreams += j.selects
			lr.Validated += j.validated()
			lr.Squashes += j.squashes
			lr.UopsSaved += j.validated() * j.savedPerStream()
			lr.SquashCycles += j.squashCycles
			lr.DoomedUops += j.doomed
		}
		r.UopsSaved += lr.UopsSaved
		reports = append(reports, lr)
	}
	r.Lines = len(reports)

	bySaved := append([]LineReport(nil), reports...)
	sort.Slice(bySaved, func(i, k int) bool {
		if bySaved[i].UopsSaved != bySaved[k].UopsSaved {
			return bySaved[i].UopsSaved > bySaved[k].UopsSaved
		}
		return bySaved[i].PC < bySaved[k].PC
	})
	if len(bySaved) > topN {
		bySaved = bySaved[:topN]
	}
	r.TopBySaved = bySaved

	bySquash := append([]LineReport(nil), reports...)
	sort.Slice(bySquash, func(i, k int) bool {
		ci, ck := bySquash[i].SquashCycles+bySquash[i].DoomedUops, bySquash[k].SquashCycles+bySquash[k].DoomedUops
		if ci != ck {
			return ci > ck
		}
		return bySquash[i].PC < bySquash[k].PC
	})
	n := 0
	for n < len(bySquash) && n < topN && bySquash[n].Squashes > 0 {
		n++
	}
	r.TopBySquash = bySquash[:n]
	return r
}

// Summary condenses the report into the manifest's scc_report block.
func (r *SCCReport) Summary() *SCCReportSummary {
	s := &SCCReportSummary{
		Requests:     r.Requests,
		Jobs:         r.Jobs,
		Lines:        r.Lines,
		OptStream:    r.Select.FromOpt,
		GateTrips:    r.Select.GateTrips,
		Squashes:     r.Squash.Squashes,
		SquashCycles: r.Squash.PenaltyCycles,
		UopsSaved:    r.UopsSaved,
	}
	if len(r.Transforms) > 0 {
		s.Transforms = append([]TransformTally(nil), r.Transforms...)
	}
	if len(r.TopBySaved) > 0 {
		s.TopLinePC = r.TopBySaved[0].PC
	}
	return s
}

// SCCReportSummary is the compact scc_report manifest block. Like Timing
// it is an observability artifact, not a measurement: Normalize strips it
// so journal-on and journal-off manifests stay byte-identical.
type SCCReportSummary struct {
	Requests  RequestTotals `json:"requests"`
	Jobs      JobTotals     `json:"jobs"`
	Lines     int           `json:"lines"`
	OptStream uint64        `json:"opt_streams"`
	GateTrips uint64        `json:"gate_trips"`
	Squashes  uint64        `json:"squashes"`
	// SquashCycles is the squash penalty-cycle total (Squash.PenaltyCycles
	// in the full report) — the dyn-loss denominator regression
	// attribution diffs against.
	SquashCycles uint64 `json:"squash_cycles,omitempty"`
	UopsSaved    uint64 `json:"uops_saved"`
	// Transforms preserves the full report's per-transform win/loss
	// tallies so manifest pairs can be diffed per transform
	// (internal/explain) without re-running the journal. omitempty keeps
	// pre-extension manifests decodable (schema additions don't bump
	// SchemaVersion; see obs.go).
	Transforms []TransformTally `json:"transforms,omitempty"`
	TopLinePC  uint64           `json:"top_line_pc,omitempty"`
}

// Encode writes the report as deterministic indented JSON.
func (r *SCCReport) Encode(w io.Writer) error {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encode scc report: %w", err)
	}
	_, err = w.Write(append(out, '\n'))
	return err
}

// WriteText renders the report in -fopt-report style.
func (r *SCCReport) WriteText(w io.Writer) error {
	p := func(format string, args ...any) {
		fmt.Fprintf(w, format, args...)
	}
	title := "SCC optimization report"
	if r.Workload != "" {
		title += " — " + r.Workload
	}
	p("%s (%s)\n", title, r.SimVersion)
	p("%s\n\n", dashes(len(title)+len(r.SimVersion)+3))

	p("requests:  %d accepted, %d queue-full, %d duplicate, %d disabled\n",
		r.Requests.Accepted, r.Requests.RejectedQueueFull,
		r.Requests.RejectedDuplicate, r.Requests.RejectedDisabled)
	p("jobs:      %d (%d committed, %d discarded, %d aborted), %d busy cycles\n",
		r.Jobs.Jobs, r.Jobs.Committed, r.Jobs.Discarded, r.Jobs.Aborted,
		r.Jobs.BusyCycles)
	p("select:    %d verdicts (%d opt, %d unopt, %d forced-unopt), %d candidates, %d gate trips\n",
		r.Select.Verdicts, r.Select.FromOpt, r.Select.FromUnopt,
		r.Select.ForcedUnopt, r.Select.Candidates, r.Select.GateTrips)
	p("squashes:  %d (%d data-inv, %d ctrl-inv), %d doomed uops, %d penalty cycles\n",
		r.Squash.Squashes, r.Squash.DataInv, r.Squash.CtrlInv,
		r.Squash.DoomedUops, r.Squash.PenaltyCycles)
	p("saved:     %d dynamic uops\n\n", r.UopsSaved)

	p("transforms:\n")
	p("  %-12s %10s %10s %10s\n", "kind", "static", "dyn-wins", "dyn-losses")
	for _, t := range r.Transforms {
		p("  %-12s %10d %10d %10d\n", t.Kind, t.Static, t.DynWins, t.DynLosses)
	}

	p("\ntop lines by uops saved:\n")
	p("  %-12s %5s %6s %8s %9s %8s %7s  %s\n",
		"pc", "jobs", "commit", "streams", "validated", "squashes", "saved",
		"static elim (mv/fold/prop/br/dce | d-inv/c-inv)")
	for _, l := range r.TopBySaved {
		p("  %-#12x %5d %6d %8d %9d %8d %7d  %d/%d/%d/%d/%d | %d/%d\n",
			l.PC, l.Jobs, l.Committed, l.OptStreams, l.Validated, l.Squashes,
			l.UopsSaved, l.StaticElim.Move, l.StaticElim.Fold,
			l.StaticElim.Prop, l.StaticElim.Branch, l.StaticElim.Dead,
			l.StaticElim.DataInv, l.StaticElim.CtrlInv)
	}

	if len(r.TopBySquash) > 0 {
		p("\ntop lines by squash cycles lost:\n")
		p("  %-12s %8s %12s %11s %9s\n",
			"pc", "squashes", "penalty-cyc", "doomed-uops", "gate-trip")
		for _, l := range r.TopBySquash {
			p("  %-#12x %8d %12d %11d %9d\n",
				l.PC, l.Squashes, l.SquashCycles, l.DoomedUops, l.GateTrips)
		}
	}

	if len(r.Forensics) > 0 {
		p("\nsquash forensics (%d", len(r.Forensics))
		if r.ForensicsDropped > 0 {
			p(", %d dropped", r.ForensicsDropped)
		}
		p("):\n")
		p("  %8s %-12s %4s %-9s %4s %-12s %11s %10s -> %-10s %6s %7s\n",
			"cycle", "pc", "job", "kind", "inv", "src-pc", "conf p->v",
			"predicted", "observed", "doomed", "penalty")
		for _, f := range r.Forensics {
			taken := ""
			if f.Kind == scc.TransformCtrlInv.String() {
				taken = fmt.Sprintf(" taken %v->%v", f.PredictedTaken, f.ObservedTaken)
			}
			p("  %8d %-#12x %4d %-9s %4d %-#12x %5d->%-4d %10d -> %-10d %6d %7d%s\n",
				f.Cycle, f.PC, f.JobID, f.Kind, f.InvIdx, f.SrcPC,
				f.ConfAtPlant, f.ConfAtViol, f.Predicted, f.Observed,
				f.DoomedUops, f.PenaltyCycles, taken)
		}
	}
	return nil
}

// WriteOptReport writes the report to path: "-" renders the text table to
// stdout, a ".json" suffix selects the deterministic JSON encoding, any
// other path gets the text rendering.
func WriteOptReport(r *SCCReport, path string) error {
	if path == "-" {
		return r.WriteText(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = r.Encode(f)
	} else {
		err = r.WriteText(f)
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func dashes(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '='
	}
	return string(b)
}
