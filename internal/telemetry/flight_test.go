package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

func TestRecorderRingEviction(t *testing.T) {
	rec := NewRecorder(4)
	for i := 1; i <= 10; i++ {
		rec.Record(slog.LevelInfo, fmt.Sprintf("event-%d", i))
	}
	evs := rec.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// Oldest-first, holding the newest 4 with monotone seq.
	for i, ev := range evs {
		wantSeq := uint64(7 + i)
		if ev.Seq != wantSeq || ev.Msg != fmt.Sprintf("event-%d", wantSeq) {
			t.Errorf("event[%d] = seq %d msg %q, want seq %d", i, ev.Seq, ev.Msg, wantSeq)
		}
	}
	if rec.Total() != 10 {
		t.Errorf("total = %d, want 10", rec.Total())
	}
}

// TestRecorderDroppedCounter: the explicit eviction counter must agree
// with the Seq-gap inference across the wraparound — zero until the ring
// first fills, then exactly total-capacity, with the dump documents
// carrying it.
func TestRecorderDroppedCounter(t *testing.T) {
	const capacity, events = 4, 11
	rec := NewRecorder(capacity)
	for i := 1; i <= capacity; i++ {
		rec.Record(slog.LevelInfo, fmt.Sprintf("event-%d", i))
		if rec.Dropped() != 0 {
			t.Fatalf("dropped %d events before the ring filled", rec.Dropped())
		}
	}
	for i := capacity + 1; i <= events; i++ {
		rec.Record(slog.LevelInfo, fmt.Sprintf("event-%d", i))
	}
	const wantDropped = events - capacity
	if rec.Dropped() != wantDropped {
		t.Fatalf("dropped = %d, want %d", rec.Dropped(), wantDropped)
	}
	// Seq-gap cross-check: first retained Seq == dropped + 1.
	if evs := rec.Events(); evs[0].Seq != wantDropped+1 {
		t.Fatalf("first retained seq %d, want %d", evs[0].Seq, wantDropped+1)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump FlightDump
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Dropped != wantDropped || dump.Total != events {
		t.Fatalf("dump dropped=%d total=%d, want %d/%d", dump.Dropped, dump.Total, wantDropped, events)
	}
	var text bytes.Buffer
	rec.WriteText(&text)
	if !strings.Contains(text.String(), fmt.Sprintf("(%d dropped)", wantDropped)) {
		t.Fatalf("text dump does not report drops:\n%s", text.String())
	}
}

func TestRecorderLevelThreshold(t *testing.T) {
	rec := NewRecorder(8)
	rec.Record(slog.LevelDebug, "invisible")
	rec.Record(slog.LevelWarn, "visible")
	evs := rec.Events()
	if len(evs) != 1 || evs[0].Msg != "visible" {
		t.Fatalf("events = %+v, want only the warn event", evs)
	}
}

func TestRecorderAsSlogHandler(t *testing.T) {
	rec := NewRecorder(8)
	log := slog.New(rec).With("request_id", "abc123")
	log.Info("job admitted", "workload", "mcf", slog.Group("cfg", "max_uops", 1000))
	log.Debug("filtered out") // below the recorder's Info threshold

	evs := rec.Events()
	if len(evs) != 1 {
		t.Fatalf("recorded %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Msg != "job admitted" || ev.Level != "INFO" {
		t.Errorf("event = %q level %q", ev.Msg, ev.Level)
	}
	if ev.Attrs["request_id"] != "abc123" {
		t.Errorf("request_id attr = %v, want abc123 (bound via With)", ev.Attrs["request_id"])
	}
	if ev.Attrs["workload"] != "mcf" {
		t.Errorf("workload attr = %v", ev.Attrs["workload"])
	}
	if v, ok := ev.Attrs["cfg.max_uops"].(int64); !ok || v != 1000 {
		t.Errorf("group attr cfg.max_uops = %v, want 1000", ev.Attrs["cfg.max_uops"])
	}
}

func TestRecorderInFanoutSeesFilteredEvents(t *testing.T) {
	// Console at Error, recorder at Info: the Info event must reach the
	// ring but not the console — the "always-on" property.
	var console bytes.Buffer
	ch := slog.NewTextHandler(&console, &slog.HandlerOptions{Level: slog.LevelError})
	rec := NewRecorder(8)
	log := slog.New(Fanout(ch, rec))

	log.Info("quiet on console")
	if console.Len() != 0 {
		t.Errorf("console received a filtered event: %q", console.String())
	}
	if got := len(rec.Events()); got != 1 {
		t.Errorf("recorder has %d events, want 1", got)
	}
	if !log.Enabled(context.Background(), slog.LevelInfo) {
		t.Error("fanout logger reports Info disabled despite the recorder")
	}
}

func TestRecorderDumps(t *testing.T) {
	rec := NewRecorder(4)
	rec.Record(slog.LevelWarn, "queue stall", slog.Int("queued_ms", 1500))

	var js bytes.Buffer
	if err := rec.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var dump FlightDump
	if err := json.Unmarshal(js.Bytes(), &dump); err != nil {
		t.Fatalf("WriteJSON output does not decode: %v", err)
	}
	if dump.Capacity != 4 || dump.Total != 1 || len(dump.Events) != 1 {
		t.Errorf("dump = cap %d total %d events %d", dump.Capacity, dump.Total, len(dump.Events))
	}

	var txt bytes.Buffer
	rec.WriteText(&txt)
	if !strings.Contains(txt.String(), "queue stall") || !strings.Contains(txt.String(), "queued_ms") {
		t.Errorf("text dump missing event content:\n%s", txt.String())
	}
}

func TestRecorderConcurrentRace(t *testing.T) {
	rec := NewRecorder(16)
	log := slog.New(rec)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				log.Info("event", "worker", w, "i", i)
			}
		}(w)
	}
	wg.Wait()
	if rec.Total() != 1600 {
		t.Errorf("total = %d, want 1600", rec.Total())
	}
	if got := len(rec.Events()); got != 16 {
		t.Errorf("retained %d, want 16", got)
	}
}
