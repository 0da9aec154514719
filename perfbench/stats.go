package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"sccsim/internal/tracing"
)

// tailBeyond is how many samples must lie beyond the reported tail
// percentile: the tail is the highest percentile the sample supports.
const tailBeyond = 10

// median returns the middle value of xs (the mean of the middle two for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the average of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailValue returns the highest sample that still has tailBeyond
// samples above it in sorted order, and the percentile it sits at. With
// too few samples for that, it returns the maximum at percentile 100.
func tailValue(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := n - 1 - tailBeyond
	if i < 0 {
		return s[n-1], 100
	}
	return s[i], 100 * float64(i+1) / float64(n)
}

// spanRec is one finished span, as recorded by the benchmark or exported
// by the program.
type spanRec struct {
	id, parent string
	name       string
	start, end time.Time
}

func fromTracing(spans []tracing.SpanData) []spanRec {
	out := make([]spanRec, 0, len(spans))
	for _, s := range spans {
		out = append(out, spanRec{
			id: s.SpanID.String(), parent: s.ParentID.String(),
			name: s.Name, start: s.Start, end: s.End,
		})
	}
	return out
}

// spanStat is the per-name aggregate of a trace.
type spanStat struct {
	count int
	total time.Duration // sum of span durations
	self  time.Duration // sum of self times
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the union of its children's intervals clipped to it, so children
// that overlap (two workers under one sweep span) are not subtracted
// twice.
func selfTimes(spans []spanRec) map[string]*spanStat {
	children := map[string][]spanRec{}
	for _, s := range spans {
		children[s.parent] = append(children[s.parent], s)
	}
	out := map[string]*spanStat{}
	for _, s := range spans {
		st := out[s.name]
		if st == nil {
			st = &spanStat{}
			out[s.name] = st
		}
		dur := s.end.Sub(s.start)
		st.count++
		st.total += dur
		st.self += dur - covered(s, children[s.id])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent spanRec, kids []spanRec) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.start, k.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var sum time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			sum += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		sum += cur.b.Sub(cur.a)
	}
	return sum
}

// digestSet maps a reference output's identity to the sha256 of its
// bytes.
type digestSet map[string]string

func (d digestSet) add(key string, data []byte) {
	sum := sha256.Sum256(data)
	d[key] = hex.EncodeToString(sum[:])
}

// check compares every key the committed file also holds and returns
// how many differ. Keys the file lacks (inputs another seed drew) are
// not checked.
func (d digestSet) check(path string) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("read digests: %w", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		return 0, fmt.Errorf("parse digests %s: %w", path, err)
	}
	bad := 0
	for k, v := range d {
		if w, ok := want[k]; ok && w != v {
			fmt.Fprintf(os.Stderr, "perfbench: digest mismatch for %s\n", k)
			bad++
		}
	}
	return bad, nil
}

// write merges d into the file at path, keeping the keys other
// workloads recorded.
func (d digestSet) write(path string) error {
	all := map[string]string{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &all); err != nil {
			return fmt.Errorf("parse digests %s: %w", path, err)
		}
	}
	for k, v := range d {
		all[k] = v
	}
	raw, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
