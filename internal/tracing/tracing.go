// Package tracing is the third observability pillar next to the metrics
// registry and the structured logs (internal/telemetry): per-request
// span trees. A Tracer collects the spans of one trace — one submitted
// job, one sweep — and exports them as OTLP-compatible JSON, as a Chrome
// trace (obs.NewTrace renders the tree), or as exemplar links on latency
// histograms.
//
// Design constraints, in order:
//
//   - Pure tap. Instrumented and bare runs must produce byte-identical
//     normalized manifests; spans only read clocks and copy attributes,
//     never feed anything back (pinned by harness.TestPureTaps).
//   - Nil-safe and cheap when off. Start on a context without a tracer
//     returns a nil *Span whose methods are no-ops, so instrumentation
//     points cost one context lookup on untraced paths.
//   - Deterministic identity. Span IDs derive from the trace ID and a
//     per-trace sequence number, and NormalizeSpans canonicalizes the
//     remaining wall-clock fields, so two identical runs under the same
//     traceparent export byte-identical normalized traces (pinned by
//     serve's TestTraceNormalizedByteStable).
//   - Propagatable. Trace context arrives and leaves as a W3C
//     traceparent header, the prerequisite for the distributed execution
//     backend (ROADMAP #2): cross-machine fan-out joins the same trace.
package tracing

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is the 16-byte W3C trace id; the zero value is invalid.
type TraceID [16]byte

// SpanID is the 8-byte W3C span id; the zero value is invalid.
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as 32 lowercase hex characters.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the id as 16 lowercase hex characters.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// mintFallback seeds trace ids when crypto/rand is unavailable (never
// expected, but a minted id must still be unique in-process).
var mintFallback atomic.Uint64

// MintTraceID mints a random trace id, for requests that arrive without
// a traceparent header.
func MintTraceID() TraceID {
	var t TraceID
	if _, err := rand.Read(t[:]); err != nil {
		binary.BigEndian.PutUint64(t[8:], mintFallback.Add(1))
		t[0] = 0xff
	}
	return t
}

// ---------------------------------------------------------------------
// W3C traceparent

// TraceparentHeader is the canonical header name (lowercase per spec).
const TraceparentHeader = "traceparent"

// ParseTraceparent parses a W3C traceparent header value
// ("00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>"). Unknown
// versions are accepted if they carry the version-00 prefix fields, per
// the spec's forward-compatibility rule; all-zero ids are invalid.
func ParseTraceparent(h string) (TraceID, SpanID, bool) {
	var t TraceID
	var s SpanID
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return t, s, false
	}
	ver := h[:2]
	if !isHex(ver) || ver == "ff" {
		return t, s, false
	}
	if ver == "00" && len(h) != 55 {
		return t, s, false
	}
	if len(h) > 55 && h[55] != '-' {
		return t, s, false
	}
	if _, err := hex.Decode(t[:], []byte(h[3:35])); err != nil {
		return TraceID{}, s, false
	}
	if _, err := hex.Decode(s[:], []byte(h[36:52])); err != nil {
		return TraceID{}, SpanID{}, false
	}
	if !isHex(h[53:55]) || t.IsZero() || s.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	return t, s, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// FormatTraceparent renders a version-00 traceparent value with the
// sampled flag set — what the serving tier echoes back to the caller.
func FormatTraceparent(t TraceID, s SpanID) string {
	return fmt.Sprintf("00-%s-%s-01", t, s)
}

// ---------------------------------------------------------------------
// Attributes

// Attr is one span attribute. Values are restricted to the JSON-stable
// scalar kinds the OTLP encoder maps losslessly: string, bool, int,
// int64, uint64, float64.
type Attr struct {
	Key   string
	Value any
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{key, value} }

// Int builds an integer attribute.
func Int(key string, value int64) Attr { return Attr{key, value} }

// Uint64 builds an unsigned integer attribute.
func Uint64(key string, value uint64) Attr { return Attr{key, value} }

// Float64 builds a float attribute.
func Float64(key string, value float64) Attr { return Attr{key, value} }

// Bool builds a boolean attribute.
func Bool(key string, value bool) Attr { return Attr{key, value} }

// ---------------------------------------------------------------------
// Tracer

// Tracer collects the spans of one trace. It is safe for concurrent use:
// the serving tier starts spans from the admission goroutine, the worker
// and the harness run concurrently.
type Tracer struct {
	traceID TraceID
	remote  SpanID // inbound traceparent parent, zero when minted locally

	mu    sync.Mutex
	seq   uint64
	spans []*Span
}

// New builds a tracer for a trace minted locally (no inbound parent).
func New(id TraceID) *Tracer { return NewWithParent(id, SpanID{}) }

// NewWithParent builds a tracer continuing an inbound trace: the first
// root-level span started on it parents under the remote span id, so the
// caller's tracing backend can stitch the trees together.
func NewWithParent(id TraceID, remoteParent SpanID) *Tracer {
	return &Tracer{traceID: id, remote: remoteParent}
}

// TraceID returns the trace's id.
func (t *Tracer) TraceID() TraceID { return t.traceID }

// nextSpanID derives a span id from the trace id and the per-trace
// sequence number. Deterministic given the same trace id and span
// creation order — random per trace because the trace id is — which
// keeps single-threaded span trees reproducible without a rand read per
// span.
func (t *Tracer) nextSpanID(seq uint64) SpanID {
	var buf [24]byte
	copy(buf[:16], t.traceID[:])
	binary.BigEndian.PutUint64(buf[16:], seq)
	sum := sha256.Sum256(buf[:])
	var s SpanID
	copy(s[:], sum[:8])
	if s.IsZero() {
		s[7] = 1
	}
	return s
}

// StartSpan starts a span under the given parent span id. A zero parent
// makes a root-level span: it parents under the inbound remote span when
// the trace carries one. Most callers use the context-based Start.
func (t *Tracer) StartSpan(name string, parent SpanID, attrs ...Attr) *Span {
	return t.StartSpanAt(time.Now(), name, parent, attrs...)
}

// StartSpanAt is StartSpan for a span that began at start, before the
// call: a span whose extent is only known once it ends, such as a
// sampling window recorded when the window closes.
func (t *Tracer) StartSpanAt(start time.Time, name string, parent SpanID, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	if parent.IsZero() {
		parent = t.remote
	}
	t.mu.Lock()
	t.seq++
	sp := &Span{
		tr:       t,
		name:     name,
		spanID:   t.nextSpanID(t.seq),
		parentID: parent,
		start:    start,
		attrs:    attrs,
	}
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// Finish ends every span still open (a cancelled or failed request can
// leave spans dangling) so the export never contains zero end times.
func (t *Tracer) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	t.mu.Unlock()
	// Reverse start order: children (started later) end no later than
	// their parents, so a finished trace always validates as nested.
	for i := len(spans) - 1; i >= 0; i-- {
		spans[i].End()
	}
}

// Spans snapshots the trace in the order its spans were started (for a
// StartSpanAt span, the order of the call). Open spans export with a
// zero End; call Finish first for a complete trace.
func (t *Tracer) Spans() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	t.mu.Unlock()
	out := make([]SpanData, len(spans))
	for i, sp := range spans {
		out[i] = sp.data()
	}
	return out
}

// ---------------------------------------------------------------------
// Span

// Span is one timed operation within a trace. All methods are safe on a
// nil receiver (the untraced path) and for concurrent use.
type Span struct {
	tr       *Tracer
	name     string
	spanID   SpanID
	parentID SpanID
	start    time.Time

	mu    sync.Mutex
	end   time.Time
	attrs []Attr
	err   string
}

// SpanID returns the span's id (zero on a nil span).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.spanID
}

// SetAttr attaches an attribute. Attribute values must be deterministic
// for a given (workload, config) input — wall-clock readings belong in
// the span's start/end fields, which NormalizeSpans strips — so that
// normalized traces stay byte-stable across identical runs.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{key, value})
	s.mu.Unlock()
}

// SetError marks the span failed with a message (exported as an OTLP
// error status).
func (s *Span) SetError(msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.err = msg
	s.mu.Unlock()
}

// End closes the span. The first call wins; later calls (including the
// tracer's Finish sweep) are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// Duration returns the span's elapsed time (zero if unended or nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return 0
	}
	return s.end.Sub(s.start)
}

func (s *Span) data() SpanData {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SpanData{
		TraceID:  s.tr.traceID,
		SpanID:   s.spanID,
		ParentID: s.parentID,
		Name:     s.name,
		Start:    s.start,
		End:      s.end,
		Attrs:    append([]Attr(nil), s.attrs...),
		Err:      s.err,
	}
}

// ---------------------------------------------------------------------
// Context plumbing

type ctxKey struct{}

type ctxVal struct {
	tr   *Tracer
	span *Span // current span; nil at the tracer's root level
}

// NewContext binds a tracer (and optionally a current span) into ctx.
// Spans started from the returned context parent under span, or at the
// trace's root level when span is nil.
func NewContext(ctx context.Context, tr *Tracer, span *Span) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ctxVal{tr, span})
}

// FromContext extracts the bound tracer and current span (nil, nil when
// the context is untraced).
func FromContext(ctx context.Context) (*Tracer, *Span) {
	v, _ := ctx.Value(ctxKey{}).(ctxVal)
	return v.tr, v.span
}

// Start begins a span as a child of the context's current span and
// returns a context with the new span current. On an untraced context it
// returns (ctx, nil) — the nil span's methods are no-ops — so call sites
// need no tracing-enabled branch.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	v, ok := ctx.Value(ctxKey{}).(ctxVal)
	if !ok || v.tr == nil {
		return ctx, nil
	}
	sp := v.tr.StartSpan(name, v.span.SpanID(), attrs...)
	return context.WithValue(ctx, ctxKey{}, ctxVal{v.tr, sp}), sp
}
