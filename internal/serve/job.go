package serve

import (
	"context"
	"sync"
	"time"

	"sccsim/internal/harness"
	"sccsim/internal/pipeline"
	"sccsim/internal/tracing"
	"sccsim/internal/workloads"
)

// jobState is the lifecycle of one submitted job.
type jobState string

// Job lifecycle states.
const (
	StateQueued   jobState = "queued"
	StateRunning  jobState = "running"
	StateDone     jobState = "done"
	StateFailed   jobState = "failed"
	StateCanceled jobState = "canceled"
)

func (st jobState) terminal() bool {
	return st == StateDone || st == StateFailed || st == StateCanceled
}

// SSE event types emitted on /v1/jobs/{id}/events.
const (
	eventState    = "state"
	eventProgress = "progress"
	eventInterval = "interval"
	eventDone     = "done"
)

type event struct {
	typ  string
	data []byte // marshaled payload
}

type stateEvent struct {
	State string `json:"state"`
}

type progressEvent struct {
	Done      int     `json:"done"`
	Total     int     `json:"total"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Job       string  `json:"job"`
	WallMS    float64 `json:"wall_ms"`
	Uops      uint64  `json:"uops"`
}

type doneEvent struct {
	State      string `json:"state"`
	ConfigHash string `json:"config_hash"`
	FromCache  bool   `json:"from_cache"`
	Error      string `json:"error,omitempty"`
}

// job is one submission's record: resolved inputs, lifecycle state, the
// append-only event log SSE subscribers replay, and the result manifest.
type job struct {
	id          string
	wl          workloads.Workload
	cfg         pipeline.Config // effective (work budget applied) — what ConfigHash covers
	hash        string
	sampleEvery uint64
	requestID   string // admission correlation ID (access log ↔ job events)
	submitted   time.Time

	// retire is the server's retention hook (Server.retire), run once
	// on the terminal transition.
	retire func(*job)

	// tr/root are the job's trace: the root "request" span opens at
	// admission and ends with the terminal state; queueSpan covers the
	// bounded-queue wait (started at enqueue, ended at worker pickup).
	// All are nil-safe: an untraced job (none exist today — every
	// submission gets a trace, inbound traceparent or minted) would
	// no-op through every call.
	tr        *tracing.Tracer
	root      *tracing.Span
	queueSpan *tracing.Span

	mu        sync.Mutex
	state     jobState
	errMsg    string
	fromCache bool
	manifest  []byte // normalized manifest JSON (Manifest.Encode bytes)
	events    []event
	update    chan struct{}      // closed and replaced on every append: broadcast
	cancel    context.CancelFunc // set while running
	canceled  bool               // cancellation requested
	done      chan struct{}      // closed on terminal state
}

// append records an event and wakes every subscriber.
func (j *job) append(typ string, payload any) {
	j.mu.Lock()
	j.events = append(j.events, event{typ: typ, data: marshal(payload)})
	close(j.update)
	j.update = make(chan struct{})
	j.mu.Unlock()
}

// eventsFrom returns the log suffix past cursor and the channel that
// will be closed on the next append. SSE handlers loop on it: drain,
// flush, wait.
func (j *job) eventsFrom(cursor int) (evs []event, update <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if cursor < len(j.events) {
		evs = j.events[cursor:]
	}
	return evs, j.update
}

// begin transitions queued → running and records the run context's
// cancel func; false means cancellation won the race and the worker
// must not start the job.
func (j *job) begin(cancel context.CancelFunc) bool {
	j.mu.Lock()
	if j.canceled || j.state.terminal() {
		j.mu.Unlock()
		return false
	}
	j.state = StateRunning
	j.cancel = cancel
	j.mu.Unlock()
	j.append(eventState, stateEvent{State: string(StateRunning)})
	return true
}

// requestCancel marks the job cancelled. If it is currently running it
// returns (true, cancel) and the caller fires the context; otherwise
// the caller finalizes a queued job directly.
func (j *job) requestCancel() (running bool, cancel context.CancelFunc) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return false, nil
	}
	j.canceled = true
	if j.state == StateRunning && j.cancel != nil {
		return true, j.cancel
	}
	return false, nil
}

func (j *job) cancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.canceled
}

// finish moves the job to a terminal state exactly once, appending the
// final done event, releasing waiters and handing the record to the
// server's retention. record runs once the transition has won, under
// j.mu and before the terminal state is published, so every observer
// of that state — a status poll, a wait:true response, the done event —
// already finds the job in the server's metrics. record must not take
// j.mu. Returns false, without running record, if the job was already
// terminal.
func (j *job) finish(st jobState, errMsg string, fromCache bool, manifest []byte, record func()) bool {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return false
	}
	record()
	j.state = st
	j.errMsg = errMsg
	j.fromCache = fromCache
	j.manifest = manifest
	j.mu.Unlock()
	if errMsg != "" && st != StateCanceled {
		j.root.SetError(errMsg)
	}
	// Finish ends every open span in reverse start order — the root last —
	// so children (worker.run, a dangling queue.wait) never outlive it and
	// the exported tree always validates as nested.
	j.tr.Finish()
	j.append(eventDone, doneEvent{
		State:      string(st),
		ConfigHash: j.hash,
		FromCache:  fromCache,
		Error:      errMsg,
	})
	close(j.done)
	j.retire(j)
	return true
}

// complete finalizes a successful run: interval events first (so SSE
// subscribers receive the sampled series), then the done event. False
// means a concurrent cancellation won the terminal transition.
func (j *job) complete(manifest []byte, res *harness.RunResult, record func()) bool {
	for i := range res.Samples {
		j.append(eventInterval, &res.Samples[i])
	}
	return j.finish(StateDone, "", res.FromCache, manifest, record)
}

func (j *job) fail(msg string, record func()) bool {
	return j.finish(StateFailed, msg, false, nil, record)
}

func (j *job) finishCanceled(record func()) bool {
	return j.finish(StateCanceled, "canceled", false, nil, record)
}

// traceID returns the job's trace id in hex ("" if untraced) — the
// value latency exemplars and log lines carry.
func (j *job) traceID() string {
	if j.tr == nil {
		return ""
	}
	return j.tr.TraceID().String()
}

// snapshot returns the fields the status endpoints render.
func (j *job) snapshot() (st jobState, errMsg string, fromCache bool, manifest []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.errMsg, j.fromCache, j.manifest
}
