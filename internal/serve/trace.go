package serve

import (
	"net/http"

	"sccsim/internal/tracing"
)

// admitTrace is the tracing admission point for job submissions: it
// continues an inbound W3C traceparent (stitching this service's spans
// under the caller's span id) or mints a fresh trace, opens the root
// "request" span, and echoes the resulting traceparent — trace id plus
// the root span's id — in the response header so the caller can follow
// the trace whether they sent one or not.
func admitTrace(w http.ResponseWriter, r *http.Request) (*tracing.Tracer, *tracing.Span) {
	var traceID tracing.TraceID
	var remote tracing.SpanID
	if t, sp, ok := tracing.ParseTraceparent(r.Header.Get(tracing.TraceparentHeader)); ok {
		traceID, remote = t, sp
	} else {
		traceID = tracing.MintTraceID()
	}
	tr := tracing.NewWithParent(traceID, remote)
	root := tr.StartSpan("request", tracing.SpanID{})
	w.Header().Set(tracing.TraceparentHeader, tracing.FormatTraceparent(traceID, root.SpanID()))
	return tr, root
}

// handleJobTrace serves GET /v1/jobs/{id}/trace: the job's span tree as
// OTLP-compatible JSON. The default document carries real wall-clock
// timestamps (tail-latency attribution); ?normalize=1 returns the
// canonicalized form — span ids re-minted in tree order, timestamps
// zeroed — which is byte-stable across identical runs
// (TestTraceNormalizedByteStable). A non-terminal job returns 409: its
// trace is still growing. An evicted or unknown job returns 404.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	st, _, _, _ := j.snapshot()
	if !st.terminal() {
		writeErr(w, http.StatusConflict, "job is %s; trace is complete once the job is terminal", st)
		return
	}
	spans := j.tr.Spans()
	if r.URL.Query().Get("normalize") == "1" {
		spans = tracing.NormalizeSpans(spans)
	}
	w.Header().Set("Content-Type", "application/json")
	tracing.EncodeOTLP(w, "sccserve", spans)
}
