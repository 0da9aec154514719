package tracing

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// SpanData is one finished span, the exchange form every exporter
// consumes (OTLP JSON, the Chrome trace, tree validation).
type SpanData struct {
	TraceID  TraceID
	SpanID   SpanID
	ParentID SpanID // zero for a local root
	Name     string
	Start    time.Time
	End      time.Time
	Attrs    []Attr
	Err      string
}

// otlp* mirror the OTLP/JSON ExportTraceServiceRequest shape
// (opentelemetry-proto trace/v1) closely enough for any OTLP-JSON
// consumer: collector file receivers, Jaeger's OTLP intake, jq.
type otlpFile struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpResource struct {
	Attributes []otlpAttr `json:"attributes"`
}

type otlpScopeSpans struct {
	Scope otlpScope  `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type otlpScope struct {
	Name string `json:"name"`
}

type otlpSpan struct {
	TraceID           string      `json:"traceId"`
	SpanID            string      `json:"spanId"`
	ParentSpanID      string      `json:"parentSpanId,omitempty"`
	Name              string      `json:"name"`
	Kind              int         `json:"kind"`
	StartTimeUnixNano string      `json:"startTimeUnixNano"`
	EndTimeUnixNano   string      `json:"endTimeUnixNano"`
	Attributes        []otlpAttr  `json:"attributes,omitempty"`
	Status            *otlpStatus `json:"status,omitempty"`
}

type otlpAttr struct {
	Key   string    `json:"key"`
	Value otlpValue `json:"value"`
}

// otlpValue is the OTLP AnyValue one-of. Exactly one field is set.
type otlpValue struct {
	StringValue *string  `json:"stringValue,omitempty"`
	IntValue    *string  `json:"intValue,omitempty"` // int64 as string, per OTLP JSON
	DoubleValue *float64 `json:"doubleValue,omitempty"`
	BoolValue   *bool    `json:"boolValue,omitempty"`
}

type otlpStatus struct {
	Code    int    `json:"code"` // 2 = STATUS_CODE_ERROR
	Message string `json:"message,omitempty"`
}

func otlpAttrValue(v any) otlpValue {
	switch x := v.(type) {
	case string:
		return otlpValue{StringValue: &x}
	case bool:
		return otlpValue{BoolValue: &x}
	case int:
		s := fmt.Sprintf("%d", x)
		return otlpValue{IntValue: &s}
	case int64:
		s := fmt.Sprintf("%d", x)
		return otlpValue{IntValue: &s}
	case uint64:
		s := fmt.Sprintf("%d", x)
		return otlpValue{IntValue: &s}
	case float64:
		return otlpValue{DoubleValue: &x}
	default:
		s := fmt.Sprintf("%v", x)
		return otlpValue{StringValue: &s}
	}
}

// unixNano renders a timestamp the way OTLP JSON spells uint64 nanos: a
// decimal string, "0" for the zero time.
func unixNano(t time.Time) string {
	if t.IsZero() {
		return "0"
	}
	return fmt.Sprintf("%d", t.UnixNano())
}

// EncodeOTLP writes spans as an OTLP-compatible JSON document under one
// resource named service. Spans from several traces may share a
// document (a sweep exports one trace per experiment); they keep their
// own trace ids.
func EncodeOTLP(w io.Writer, service string, spans []SpanData) error {
	svc := service
	out := otlpFile{ResourceSpans: []otlpResourceSpans{{
		Resource: otlpResource{Attributes: []otlpAttr{
			{Key: "service.name", Value: otlpValue{StringValue: &svc}},
		}},
		ScopeSpans: []otlpScopeSpans{{
			Scope: otlpScope{Name: "sccsim/internal/tracing"},
			Spans: make([]otlpSpan, 0, len(spans)),
		}},
	}}}
	for _, sd := range spans {
		sp := otlpSpan{
			TraceID:           sd.TraceID.String(),
			SpanID:            sd.SpanID.String(),
			Name:              sd.Name,
			Kind:              1, // SPAN_KIND_INTERNAL
			StartTimeUnixNano: unixNano(sd.Start),
			EndTimeUnixNano:   unixNano(sd.End),
		}
		if !sd.ParentID.IsZero() {
			sp.ParentSpanID = sd.ParentID.String()
		}
		for _, a := range sd.Attrs {
			sp.Attributes = append(sp.Attributes, otlpAttr{Key: a.Key, Value: otlpAttrValue(a.Value)})
		}
		if sd.Err != "" {
			sp.Status = &otlpStatus{Code: 2, Message: sd.Err}
		}
		out.ResourceSpans[0].ScopeSpans[0].Spans = append(out.ResourceSpans[0].ScopeSpans[0].Spans, sp)
	}
	enc, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return fmt.Errorf("tracing: encode otlp: %w", err)
	}
	_, err = w.Write(append(enc, '\n'))
	return err
}

// WriteOTLPFile encodes spans to path (0644, truncating).
func WriteOTLPFile(path, service string, spans []SpanData) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := EncodeOTLP(f, service, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// NormalizeSpans canonicalizes a trace's nondeterministic fields the way
// Manifest.Normalize strips wall-clock timing: timestamps are zeroed and
// span ids are reassigned depth-first in (start-order) tree order,
// derived from the trace id. Two identical runs under the same inbound
// traceparent therefore export byte-identical normalized documents —
// the byte-stability property serve's TestTraceNormalizedByteStable
// pins. The input is not modified; spans are returned in depth-first
// tree order.
func NormalizeSpans(spans []SpanData) []SpanData {
	if len(spans) == 0 {
		return nil
	}
	// Children grouped by parent, preserving the slice's start order.
	children := make(map[SpanID][]int, len(spans))
	byID := make(map[SpanID]int, len(spans))
	for i, sd := range spans {
		byID[sd.SpanID] = i
		children[sd.ParentID] = append(children[sd.ParentID], i)
	}
	// Roots: spans whose parent is not in the document (local roots and
	// spans continuing a remote parent).
	var roots []int
	for i, sd := range spans {
		if _, ok := byID[sd.ParentID]; !ok || sd.ParentID.IsZero() {
			roots = append(roots, i)
		}
	}
	sort.Ints(roots)

	remint := NewWithParent(spans[0].TraceID, SpanID{})
	newID := make(map[SpanID]SpanID, len(spans))
	out := make([]SpanData, 0, len(spans))
	var walk func(idx int, parent SpanID)
	walk = func(idx int, parent SpanID) {
		sd := spans[idx]
		remint.seq++
		id := remint.nextSpanID(remint.seq)
		newID[sd.SpanID] = id
		nd := sd
		nd.SpanID = id
		nd.ParentID = parent
		nd.Start = time.Time{}
		nd.End = time.Time{}
		nd.Attrs = append([]Attr(nil), sd.Attrs...)
		out = append(out, nd)
		for _, c := range children[sd.SpanID] {
			if c == idx {
				continue // self-parented span: do not recurse forever
			}
			walk(c, id)
		}
	}
	for _, r := range roots {
		walk(r, SpanID{})
	}
	return out
}

// ValidateTree checks a trace export is well-formed: non-empty, exactly
// one root, every parent id resolves to a span in the document (no
// orphans), all spans share one trace id, every span is ended, and each
// child's interval nests within its parent's. The serve and harness
// tests run finished traces through it.
func ValidateTree(spans []SpanData) error {
	if len(spans) == 0 {
		return fmt.Errorf("tracing: empty trace")
	}
	byID := make(map[SpanID]int, len(spans))
	traceID := spans[0].TraceID
	for i, sd := range spans {
		if sd.TraceID != traceID {
			return fmt.Errorf("tracing: span %q has trace id %s, want %s", sd.Name, sd.TraceID, traceID)
		}
		if sd.SpanID.IsZero() {
			return fmt.Errorf("tracing: span %q has a zero span id", sd.Name)
		}
		if prev, dup := byID[sd.SpanID]; dup {
			return fmt.Errorf("tracing: spans %q and %q share span id %s", spans[prev].Name, sd.Name, sd.SpanID)
		}
		if sd.End.IsZero() {
			return fmt.Errorf("tracing: span %q is not ended", sd.Name)
		}
		if sd.End.Before(sd.Start) {
			return fmt.Errorf("tracing: span %q ends before it starts", sd.Name)
		}
		byID[sd.SpanID] = i
	}
	roots := 0
	for _, sd := range spans {
		pi, ok := byID[sd.ParentID]
		switch {
		case sd.ParentID.IsZero():
			roots++
		case !ok:
			// A parent outside the document is only legal for the remote
			// parent of the (single) root; treat as root for counting.
			roots++
		default:
			p := spans[pi]
			if sd.Start.Before(p.Start) || p.End.Before(sd.End) {
				return fmt.Errorf("tracing: span %q [%v..%v] not nested within parent %q [%v..%v]",
					sd.Name, sd.Start, sd.End, p.Name, p.Start, p.End)
			}
		}
	}
	if roots != 1 {
		return fmt.Errorf("tracing: %d roots, want exactly 1", roots)
	}
	return nil
}
