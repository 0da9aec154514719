package tracing

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// traceparentGood and traceparentBad are TestParseTraceparent's
// vectors and FuzzParseTraceparent's seeds.
var (
	traceparentGood = []string{
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		// A future version with trailing fields is accepted.
		"cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-what-ever",
	}
	traceparentBad = []string{
		"",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",          // no flags
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",       // zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",       // zero span id
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",       // forbidden version
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra", // v00 must be exact length
		"0g-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",       // bad version hex
		"00-0af7651916cd43dd8448eb211c80319X-b7ad6b7169203331-01",       // bad trace hex
		"00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01",       // uppercase ids
		"00-0af7651916cd43dd8448eb211c80319c-B7AD6B7169203331-01",       // uppercase span id
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0A",       // uppercase flags
	}
)

func TestParseTraceparent(t *testing.T) {
	tid, sid, ok := ParseTraceparent(traceparentGood[0])
	if !ok {
		t.Fatal("valid traceparent rejected")
	}
	if tid.String() != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("trace id = %s", tid)
	}
	if sid.String() != "b7ad6b7169203331" {
		t.Errorf("span id = %s", sid)
	}
	for _, h := range traceparentGood[1:] {
		if _, _, ok := ParseTraceparent(h); !ok {
			t.Errorf("ParseTraceparent(%q) rejected", h)
		}
	}
	for _, h := range traceparentBad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted", h)
		}
	}
}

// FuzzParseTraceparent feeds arbitrary header values to the parser. It
// must never panic, and a header it accepts must carry non-zero ids
// that FormatTraceparent renders back to the header's own id bytes
// (3 through 52, the ids and the dash after them): only lowercase ids
// round-trip.
func FuzzParseTraceparent(f *testing.F) {
	for _, h := range append(traceparentGood, traceparentBad...) {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		tid, sid, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		if tid.IsZero() || sid.IsZero() {
			t.Fatalf("accepted %q with a zero id", h)
		}
		if got := FormatTraceparent(tid, sid); got[3:53] != h[3:53] {
			t.Fatalf("accepted %q, which formats back as %q", h, got)
		}
	})
}

func TestTraceparentRoundTrip(t *testing.T) {
	tid := MintTraceID()
	tr := New(tid)
	sp := tr.StartSpan("root", SpanID{})
	h := FormatTraceparent(tid, sp.SpanID())
	gotT, gotS, ok := ParseTraceparent(h)
	if !ok || gotT != tid || gotS != sp.SpanID() {
		t.Fatalf("round trip failed: %q -> (%s, %s, %v)", h, gotT, gotS, ok)
	}
}

func TestMintTraceIDUnique(t *testing.T) {
	seen := map[TraceID]bool{}
	for i := 0; i < 100; i++ {
		id := MintTraceID()
		if id.IsZero() {
			t.Fatal("minted a zero trace id")
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %s", id)
		}
		seen[id] = true
	}
}

func TestSpanIDsDeterministicPerTrace(t *testing.T) {
	tid, _, _ := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	a, b := New(tid), New(tid)
	for i := 0; i < 5; i++ {
		sa := a.StartSpan("s", SpanID{})
		sb := b.StartSpan("s", SpanID{})
		if sa.SpanID() != sb.SpanID() {
			t.Fatalf("span %d ids differ across identical traces: %s vs %s", i, sa.SpanID(), sb.SpanID())
		}
		if sa.SpanID().IsZero() {
			t.Fatal("zero span id minted")
		}
	}
}

func TestNilSpanSafe(t *testing.T) {
	var sp *Span
	sp.SetAttr("k", "v")
	sp.SetError("boom")
	sp.End()
	if got := sp.SpanID(); !got.IsZero() {
		t.Errorf("nil span id = %s", got)
	}
	if sp.Duration() != 0 {
		t.Error("nil span has a duration")
	}
	// Start on an untraced context is a no-op returning the same ctx.
	ctx := context.Background()
	ctx2, sp2 := Start(ctx, "op")
	if sp2 != nil || ctx2 != ctx {
		t.Error("Start on untraced context allocated a span or a context")
	}
}

func TestContextPropagation(t *testing.T) {
	tr := New(MintTraceID())
	ctx := NewContext(context.Background(), tr, nil)
	ctx, root := Start(ctx, "root")
	ctx, child := Start(ctx, "child")
	_, grand := Start(ctx, "grandchild")
	grand.End()
	child.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if !spans[0].ParentID.IsZero() {
		t.Errorf("root has parent %s", spans[0].ParentID)
	}
	if spans[1].ParentID != spans[0].SpanID {
		t.Error("child does not parent under root")
	}
	if spans[2].ParentID != spans[1].SpanID {
		t.Error("grandchild does not parent under child")
	}
	if err := ValidateTree(spans); err != nil {
		t.Errorf("ValidateTree: %v", err)
	}
}

func TestRemoteParentStitching(t *testing.T) {
	_, remote, _ := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	tr := NewWithParent(MintTraceID(), remote)
	root := tr.StartSpan("root", SpanID{})
	root.End()
	spans := tr.Spans()
	if spans[0].ParentID != remote {
		t.Errorf("root parent = %s, want inbound remote %s", spans[0].ParentID, remote)
	}
	// Still a single-root valid tree: the remote parent is outside the
	// document.
	if err := ValidateTree(spans); err != nil {
		t.Errorf("ValidateTree: %v", err)
	}
}

func TestFinishEndsOpenSpans(t *testing.T) {
	tr := New(MintTraceID())
	root := tr.StartSpan("root", SpanID{})
	tr.StartSpan("dangling", root.SpanID())
	tr.Finish()
	for _, sd := range tr.Spans() {
		if sd.End.IsZero() {
			t.Errorf("span %q still open after Finish", sd.Name)
		}
	}
	if err := ValidateTree(tr.Spans()); err != nil {
		t.Errorf("ValidateTree after Finish: %v", err)
	}
}

func TestValidateTreeRejects(t *testing.T) {
	tr := New(MintTraceID())
	root := tr.StartSpan("root", SpanID{})
	child := tr.StartSpan("child", root.SpanID())
	child.End()
	root.End()
	good := tr.Spans()

	if err := ValidateTree(nil); err == nil {
		t.Error("empty trace accepted")
	}

	orphan := append([]SpanData(nil), good...)
	orphan[1].ParentID = SpanID{0xde, 0xad} // dangling parent → second root
	if err := ValidateTree(orphan); err == nil || !strings.Contains(err.Error(), "roots") {
		t.Errorf("orphan parent accepted: %v", err)
	}

	open := append([]SpanData(nil), good...)
	open[1].End = time.Time{}
	if err := ValidateTree(open); err == nil || !strings.Contains(err.Error(), "not ended") {
		t.Errorf("open span accepted: %v", err)
	}

	escaped := append([]SpanData(nil), good...)
	escaped[1].End = good[0].End.Add(time.Second)
	if err := ValidateTree(escaped); err == nil || !strings.Contains(err.Error(), "nested") {
		t.Errorf("non-nested child accepted: %v", err)
	}

	twoRoots := append([]SpanData(nil), good...)
	twoRoots[1].ParentID = SpanID{}
	if err := ValidateTree(twoRoots); err == nil || !strings.Contains(err.Error(), "roots") {
		t.Errorf("two roots accepted: %v", err)
	}
}

// buildTrace makes a three-span trace with wall-clock timings, for the
// export tests.
func buildTrace(t *testing.T, tid TraceID) []SpanData {
	t.Helper()
	tr := New(tid)
	ctx := NewContext(context.Background(), tr, nil)
	ctx, root := Start(ctx, "job", String("workload", "xalancbmk"))
	ctx, run := Start(ctx, "run")
	_, sim := Start(ctx, "simulate", Uint64("max_uops", 20000))
	time.Sleep(time.Millisecond)
	sim.SetAttr("uops", uint64(12345))
	sim.End()
	run.End()
	root.End()
	return tr.Spans()
}

func TestNormalizeSpansByteStable(t *testing.T) {
	tid, _, _ := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	a := buildTrace(t, tid)
	time.Sleep(2 * time.Millisecond) // distinct wall-clock timings
	b := buildTrace(t, tid)

	var rawA, rawB bytes.Buffer
	if err := EncodeOTLP(&rawA, "test", a); err != nil {
		t.Fatal(err)
	}
	if err := EncodeOTLP(&rawB, "test", b); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(rawA.Bytes(), rawB.Bytes()) {
		t.Error("raw exports unexpectedly identical (timestamps missing?)")
	}

	var normA, normB bytes.Buffer
	if err := EncodeOTLP(&normA, "test", NormalizeSpans(a)); err != nil {
		t.Fatal(err)
	}
	if err := EncodeOTLP(&normB, "test", NormalizeSpans(b)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(normA.Bytes(), normB.Bytes()) {
		t.Errorf("normalized exports differ:\n%s\nvs\n%s", normA.Bytes(), normB.Bytes())
	}
	// Normalization preserves structure: names, hierarchy, attrs.
	na := NormalizeSpans(a)
	if len(na) != len(a) {
		t.Fatalf("normalize dropped spans: %d -> %d", len(a), len(na))
	}
	if na[0].Name != "job" || na[1].Name != "run" || na[2].Name != "simulate" {
		t.Errorf("normalize reordered spans: %q %q %q", na[0].Name, na[1].Name, na[2].Name)
	}
	if na[1].ParentID != na[0].SpanID || na[2].ParentID != na[1].SpanID {
		t.Error("normalize broke the parent chain")
	}
	if !na[0].Start.IsZero() || !na[0].End.IsZero() {
		t.Error("normalize kept wall-clock timestamps")
	}
}

func TestEncodeOTLPShape(t *testing.T) {
	tid, _, _ := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	spans := buildTrace(t, tid)
	spans[0].Err = "boom"
	var buf bytes.Buffer
	if err := EncodeOTLP(&buf, "sccserve", spans); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	rs := doc["resourceSpans"].([]any)[0].(map[string]any)
	res := rs["resource"].(map[string]any)["attributes"].([]any)[0].(map[string]any)
	if res["key"] != "service.name" {
		t.Errorf("resource attr key = %v", res["key"])
	}
	sl := rs["scopeSpans"].([]any)[0].(map[string]any)["spans"].([]any)
	if len(sl) != 3 {
		t.Fatalf("%d spans exported, want 3", len(sl))
	}
	first := sl[0].(map[string]any)
	if first["traceId"] != tid.String() {
		t.Errorf("traceId = %v", first["traceId"])
	}
	if first["name"] != "job" {
		t.Errorf("name = %v", first["name"])
	}
	if _, hasParent := first["parentSpanId"]; hasParent {
		t.Error("root span exported a parentSpanId")
	}
	if st, ok := first["status"].(map[string]any); !ok || st["code"] != float64(2) || st["message"] != "boom" {
		t.Errorf("status = %v", first["status"])
	}
	second := sl[1].(map[string]any)
	if second["parentSpanId"] != first["spanId"] {
		t.Error("child parentSpanId does not match root spanId")
	}
	if second["startTimeUnixNano"] == "0" {
		t.Error("raw export zeroed timestamps")
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := New(MintTraceID())
	root := tr.StartSpan("root", SpanID{})
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 50; j++ {
				sp := tr.StartSpan("child", root.SpanID())
				sp.SetAttr("j", int64(j))
				sp.End()
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	root.End()
	spans := tr.Spans()
	if len(spans) != 1+8*50 {
		t.Fatalf("got %d spans, want %d", len(spans), 1+8*50)
	}
	if err := ValidateTree(spans); err != nil {
		t.Errorf("ValidateTree: %v", err)
	}
}
