package main

import (
	"testing"
	"time"
)

func TestTailValueLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{11, 12, 25, 100, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i) // descending input: the helper must sort
		}
		v, pct := tailValue(xs)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond %v, want %d", n, beyond, v, tailBeyond)
		}
		if want := 100 * float64(n-tailBeyond) / float64(n); pct != want {
			t.Errorf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
	if v, pct := tailValue([]float64{3, 1, 2}); v != 3 || pct != 100 {
		t.Errorf("short sample: got %v at p%v, want the maximum at p100", v, pct)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

func TestSelfTimeSubtractsChildUnionOnce(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []spanRec{
		{id: "root", name: "sweep", start: at(0), end: at(100)},
		// Two workers overlap on [10,60] and [30,80]: union is [10,80].
		{id: "a", parent: "root", name: "run", start: at(10), end: at(60)},
		{id: "b", parent: "root", name: "run", start: at(30), end: at(80)},
		// A grandchild of a is not subtracted from the root.
		{id: "c", parent: "a", name: "simulate", start: at(20), end: at(50)},
		// A child running past its parent is clipped to the parent.
		{id: "d", parent: "b", name: "finalize", start: at(70), end: at(90)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"sweep":    30 * time.Millisecond, // 100 - 70
		"run":      (50 - 30 + 50 - 10) * time.Millisecond,
		"simulate": 30 * time.Millisecond,
		"finalize": 20 * time.Millisecond,
	}
	for name, w := range want {
		if got[name] == nil || got[name].self != w {
			t.Errorf("%s self = %v, want %v", name, got[name], w)
		}
	}
	if got["run"].count != 2 || got["run"].total != 100*time.Millisecond {
		t.Errorf("run aggregate = %+v", *got["run"])
	}
}

func TestSelfTimeDisjointAndNestedChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []spanRec{
		{id: "r", name: "op", start: at(0), end: at(100)},
		{id: "x", parent: "r", name: "k", start: at(0), end: at(10)},
		{id: "y", parent: "r", name: "k", start: at(20), end: at(30)},
		{id: "z", parent: "r", name: "k", start: at(22), end: at(28)}, // inside y
		{id: "w", parent: "r", name: "k", start: at(90), end: at(100)},
	}
	if got := selfTimes(spans)["op"].self; got != 70*time.Millisecond {
		t.Errorf("op self = %v, want 70ms", got)
	}
}
