package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"sccsim/internal/tracing"
)

// traceEvent is one Chrome trace-event (catapult) record. Only the
// subset Perfetto needs is emitted: metadata ("M") events naming
// processes and threads, and complete ("X") duration events.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the catapult JSON object format.
type traceFile struct {
	TraceEvents     []traceEvent      `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// Trace is a finished span tree rendered as a Chrome trace-event file,
// viewable in Perfetto (ui.perfetto.dev) or chrome://tracing. Each root
// span (a sccbench sweep, a sccsim run) becomes one process, named after
// it, whose first lane it covers. The root's direct children are packed
// greedily onto the fewest lanes on which slices only nest, so the
// concurrent runs of a parallel sweep sit side by side, and every deeper
// span goes on its top-level ancestor's lane, inside it. Timestamps
// count from the earliest span, so successive sweeps appear one after
// another.
type Trace struct {
	events []traceEvent
	base   time.Time
}

// NewTrace renders spans, a finished trace (Tracer.Finish, then Spans).
// A span whose parent is not among them is a root.
func NewTrace(spans []tracing.SpanData) *Trace {
	t := &Trace{}
	known := make(map[tracing.SpanID]bool, len(spans))
	for _, sd := range spans {
		known[sd.SpanID] = true
		if t.base.IsZero() || sd.Start.Before(t.base) {
			t.base = sd.Start
		}
	}
	children := map[tracing.SpanID][]tracing.SpanData{}
	var roots []tracing.SpanData
	for _, sd := range spans {
		if known[sd.ParentID] {
			children[sd.ParentID] = append(children[sd.ParentID], sd)
		} else {
			roots = append(roots, sd)
		}
	}
	for i, root := range roots {
		pid := i + 1
		t.meta("process_name", pid, 0, root.Name)
		t.meta("thread_name", pid, 1, "lane 1")
		t.slice(root, pid, 1)
		// Greedy interval partitioning: in start order, each child takes
		// the first lane whose last child has ended, which needs exactly
		// as many lanes as children ever overlap.
		kids := children[root.SpanID]
		sort.SliceStable(kids, func(a, b int) bool { return kids[a].Start.Before(kids[b].Start) })
		laneEnd := []time.Time{root.Start}
		for _, kid := range kids {
			lane := 0
			for lane < len(laneEnd) && laneEnd[lane].After(kid.Start) {
				lane++
			}
			if lane == len(laneEnd) {
				laneEnd = append(laneEnd, time.Time{})
				t.meta("thread_name", pid, lane+1, fmt.Sprintf("lane %d", lane+1))
			}
			laneEnd[lane] = kid.End
			t.subtree(kid, children, pid, lane+1)
		}
	}
	return t
}

// subtree renders sd and all its descendants on one lane.
func (t *Trace) subtree(sd tracing.SpanData, children map[tracing.SpanID][]tracing.SpanData, pid, tid int) {
	t.slice(sd, pid, tid)
	for _, c := range children[sd.SpanID] {
		t.subtree(c, children, pid, tid)
	}
}

// slice renders one span; its attributes, ids and error become args.
func (t *Trace) slice(sd tracing.SpanData, pid, tid int) {
	args := map[string]any{
		"trace_id": sd.TraceID.String(),
		"span_id":  sd.SpanID.String(),
	}
	if !sd.ParentID.IsZero() {
		args["parent_id"] = sd.ParentID.String()
	}
	for _, a := range sd.Attrs {
		args[a.Key] = a.Value
	}
	cat := "span"
	if sd.Err != "" {
		cat = "span,error"
		args["error"] = sd.Err
	}
	t.events = append(t.events, traceEvent{
		Name: sd.Name, Cat: cat, Ph: "X",
		TS: micros(sd.Start.Sub(t.base)), Dur: micros(sd.End.Sub(sd.Start)),
		PID: pid, TID: tid, Args: args,
	})
}

func (t *Trace) meta(kind string, pid, tid int, name string) {
	t.events = append(t.events, traceEvent{
		Name: kind, Ph: "M", PID: pid, TID: tid,
		Args: map[string]any{"name": name},
	})
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Encode writes the catapult JSON object.
func (t *Trace) Encode(w io.Writer) error {
	f := traceFile{
		TraceEvents:     t.events,
		DisplayTimeUnit: "ms",
		OtherData:       map[string]string{"sim_version": Version},
	}
	if f.TraceEvents == nil {
		f.TraceEvents = []traceEvent{}
	}
	out, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return fmt.Errorf("obs: encode trace: %w", err)
	}
	_, err = w.Write(append(out, '\n'))
	return err
}

// WriteFile encodes the trace to path (0644, truncating).
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
