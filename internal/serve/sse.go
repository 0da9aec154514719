package serve

import (
	"fmt"
	"net/http"
	"time"
)

// sseHeartbeat paces keepalive comments on idle streams so proxies and
// load balancers do not reap a connection waiting on a long simulation.
const sseHeartbeat = 15 * time.Second

// handleEvents streams the job's event log as Server-Sent Events:
// state transitions, runner.ProgressEvent-derived progress, the
// interval-sample series, and a final done event, after which the
// stream closes. Late subscribers replay the full history first, so
// the stream is complete no matter when the client attaches. The
// stream also terminates cleanly when the client disconnects or the
// job is cancelled.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	cursor := 0
	for {
		evs, update := j.eventsFrom(cursor)
		done := false
		for _, e := range evs {
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", cursor, e.typ, e.data)
			cursor++
			done = e.typ == eventDone
		}
		fl.Flush()
		// The done event is the last entry the log ever gets, appended
		// just after the job turns terminal: the stream is complete once
		// it is written, not once the state is terminal.
		if done {
			return
		}
		select {
		case <-update:
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
		}
	}
}
