package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"
)

// DefaultFlightCapacity bounds the flight recorder ring when the caller
// does not choose a size.
const DefaultFlightCapacity = 256

// FlightEvent is one recorded structured event. Attrs flattens the
// slog attribute set (group-qualified keys joined with '.').
type FlightEvent struct {
	Seq   uint64         `json:"seq"`
	Time  time.Time      `json:"time"`
	Level string         `json:"level"`
	Msg   string         `json:"msg"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Recorder is the always-on flight recorder: a bounded ring of recent
// structured events for post-hoc incident debugging. It implements
// slog.Handler, so fanning a logger out to (console handler, recorder)
// keeps recording admissions, rejections, cancellations and state
// transitions even when the console -log-level filters them — the ring
// is what /debug/flight and the SIGQUIT dump render after the fact.
//
// Recording one event is one mutex-guarded ring store; events past the
// capacity overwrite the oldest. Seq is monotone, so a dump makes drops
// visible (first event's Seq > 1 means older events were evicted).
type Recorder struct {
	mu      sync.Mutex
	buf     []FlightEvent
	next    int    // ring write cursor
	total   uint64 // events ever recorded (= last Seq)
	dropped uint64 // events evicted by the ring (total - retained)
}

// NewRecorder builds a recorder retaining the last capacity events
// (<= 0 = DefaultFlightCapacity) at slog.LevelInfo and above.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &Recorder{buf: make([]FlightEvent, 0, capacity)}
}

// minLevel is the recording threshold: events below Info are not kept.
const minLevel = slog.LevelInfo

// Record appends one event directly (non-slog callers).
func (rec *Recorder) Record(lv slog.Level, msg string, attrs ...slog.Attr) {
	if lv < minLevel {
		return
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		flattenAttr(m, "", a)
	}
	rec.push(FlightEvent{Time: time.Now(), Level: lv.String(), Msg: msg, Attrs: m})
}

func (rec *Recorder) push(ev FlightEvent) {
	rec.mu.Lock()
	rec.total++
	ev.Seq = rec.total
	if len(rec.buf) < cap(rec.buf) {
		rec.buf = append(rec.buf, ev)
	} else {
		rec.buf[rec.next] = ev
		rec.next = (rec.next + 1) % cap(rec.buf)
		rec.dropped++
	}
	rec.mu.Unlock()
}

// Events snapshots the ring, oldest first.
func (rec *Recorder) Events() []FlightEvent {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	out := make([]FlightEvent, 0, len(rec.buf))
	out = append(out, rec.buf[rec.next:]...)
	out = append(out, rec.buf[:rec.next]...)
	return out
}

// Total reports how many events were ever recorded (evicted included).
func (rec *Recorder) Total() uint64 {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.total
}

// Dropped reports how many recorded events the ring has evicted — the
// explicit counter behind telemetry_flight_dropped_total (always equals
// Total minus retained events; previously only inferable from Seq gaps).
func (rec *Recorder) Dropped() uint64 {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.dropped
}

// FlightDump is the /debug/flight JSON document.
type FlightDump struct {
	Capacity int           `json:"capacity"`
	Total    uint64        `json:"total"`   // events ever recorded
	Dropped  uint64        `json:"dropped"` // events evicted from the ring
	Events   []FlightEvent `json:"events"`
}

// WriteJSON renders the dump document.
func (rec *Recorder) WriteJSON(w io.Writer) error {
	dump := FlightDump{Capacity: cap(rec.buf), Total: rec.Total(), Dropped: rec.Dropped(), Events: rec.Events()}
	out, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(out, '\n'))
	return err
}

// WriteText renders a human-readable dump, one event per line — the
// SIGQUIT incident format.
func (rec *Recorder) WriteText(w io.Writer) {
	evs := rec.Events()
	fmt.Fprintf(w, "flight recorder: %d retained of %d recorded events (%d dropped)\n",
		len(evs), rec.Total(), rec.Dropped())
	for _, ev := range evs {
		fmt.Fprintf(w, "  #%-6d %s %-5s %s", ev.Seq, ev.Time.Format("15:04:05.000"), ev.Level, ev.Msg)
		if len(ev.Attrs) > 0 {
			// json.Marshal sorts map keys: deterministic rendering.
			if b, err := json.Marshal(ev.Attrs); err == nil {
				fmt.Fprintf(w, " %s", b)
			}
		}
		fmt.Fprintln(w)
	}
}

// ---------------------------------------------------------------------
// slog.Handler implementation

// Enabled implements slog.Handler.
func (rec *Recorder) Enabled(_ context.Context, lv slog.Level) bool { return lv >= minLevel }

// Handle implements slog.Handler.
func (rec *Recorder) Handle(ctx context.Context, r slog.Record) error {
	return (&recHandler{rec: rec}).Handle(ctx, r)
}

// WithAttrs implements slog.Handler.
func (rec *Recorder) WithAttrs(attrs []slog.Attr) slog.Handler {
	return (&recHandler{rec: rec}).WithAttrs(attrs)
}

// WithGroup implements slog.Handler.
func (rec *Recorder) WithGroup(name string) slog.Handler {
	return (&recHandler{rec: rec}).WithGroup(name)
}

// recHandler is a derived handler carrying WithAttrs/WithGroup state;
// all derivations share the parent ring.
type recHandler struct {
	rec    *Recorder
	attrs  []slog.Attr // pre-bound attrs, keys already group-qualified
	prefix string      // open group prefix ("a.b.")
}

func (h *recHandler) Enabled(_ context.Context, lv slog.Level) bool { return lv >= minLevel }

func (h *recHandler) Handle(_ context.Context, r slog.Record) error {
	m := make(map[string]any, len(h.attrs)+r.NumAttrs())
	for _, a := range h.attrs {
		flattenAttr(m, "", a) // keys pre-qualified at bind time
	}
	r.Attrs(func(a slog.Attr) bool {
		flattenAttr(m, h.prefix, a)
		return true
	})
	h.rec.push(FlightEvent{Time: r.Time, Level: r.Level.String(), Msg: r.Message, Attrs: m})
	return nil
}

func (h *recHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	out := &recHandler{rec: h.rec, prefix: h.prefix}
	out.attrs = append(append([]slog.Attr{}, h.attrs...), qualify(h.prefix, attrs)...)
	return out
}

func (h *recHandler) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	return &recHandler{rec: h.rec, attrs: h.attrs, prefix: h.prefix + name + "."}
}

// qualify prefixes bound attr keys with the open group path.
func qualify(prefix string, attrs []slog.Attr) []slog.Attr {
	if prefix == "" {
		return attrs
	}
	out := make([]slog.Attr, len(attrs))
	for i, a := range attrs {
		out[i] = slog.Attr{Key: prefix + a.Key, Value: a.Value}
	}
	return out
}

// flattenAttr resolves one attribute into the flat map, expanding
// groups into dot-joined keys.
func flattenAttr(m map[string]any, prefix string, a slog.Attr) {
	v := a.Value.Resolve()
	if v.Kind() == slog.KindGroup {
		p := prefix
		if a.Key != "" {
			p = prefix + a.Key + "."
		}
		for _, ga := range v.Group() {
			flattenAttr(m, p, ga)
		}
		return
	}
	if a.Key == "" {
		return
	}
	m[prefix+a.Key] = v.Any()
}
