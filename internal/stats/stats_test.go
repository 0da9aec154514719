package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("mean of empty should be 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean = %v", got)
	}
}

func TestGeoMean(t *testing.T) {
	if GeoMean(nil) != 0 {
		t.Error("geomean of empty should be 0")
	}
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2,8) = %v", got)
	}
	if got := GeoMean([]float64{1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("geomean(1,1,1) = %v", got)
	}
	// Non-positive values must not produce NaN.
	if got := GeoMean([]float64{0, 4}); math.IsNaN(got) {
		t.Error("geomean with zero produced NaN")
	}
}

func TestGeoMeanBetweenMinMax(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			x = math.Abs(x)
			if x > 1e-6 && x < 1e6 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		g := GeoMean(xs)
		return g >= Min(xs)-1e-9 && g <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("min=%v max=%v", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty extremes should be 0")
	}
}

func TestStddev(t *testing.T) {
	if Stddev(nil) != 0 || Stddev([]float64{5}) != 0 {
		t.Error("stddev needs at least two values")
	}
	// Sample stddev of {2,4,4,4,5,5,7,9} is sqrt(32/7).
	got := Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if want := math.Sqrt(32.0 / 7.0); math.Abs(got-want) > 1e-12 {
		t.Errorf("stddev = %v, want %v", got, want)
	}
	if got := Stddev([]float64{3, 3, 3}); got != 0 {
		t.Errorf("stddev of constant series = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	if Percentile(nil, 50) != 0 {
		t.Error("percentile of empty should be 0")
	}
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5}, {75, 32.5},
		{-5, 10}, {120, 40}, // clamped
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	// Input must not be reordered.
	if xs[0] != 40 || xs[3] != 20 {
		t.Errorf("Percentile mutated its input: %v", xs)
	}
	if got := Percentile([]float64{7}, 50); got != 7 {
		t.Errorf("single-element percentile = %v", got)
	}
}

func TestPercentileBounded(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		got := Percentile(xs, math.Mod(math.Abs(p), 100))
		return got >= Min(xs)-1e-9 && got <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRatioAndSpeedup pins Ratio in the two roles the figures use it
// for — a speedup (baseline/measured) and a normalized metric
// (measured/baseline) — and its zero-denominator guard.
func TestRatioAndSpeedup(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Error("division by zero must yield 0")
	}
	if got := Ratio(120, 100); got != 1.2 {
		t.Errorf("speedup = %v", got)
	}
	if got := Ratio(90, 100); got != 0.9 {
		t.Errorf("normalized = %v", got)
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.123); got != "12.3%" {
		t.Errorf("Pct = %q", got)
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	// Empty input: 0 at every p, including the clamped extremes.
	for _, p := range []float64{-10, 0, 50, 100, 200} {
		if got := Percentile(nil, p); got != 0 {
			t.Errorf("Percentile(nil, %v) = %v, want 0", p, got)
		}
		if got := Percentile([]float64{}, p); got != 0 {
			t.Errorf("Percentile(empty, %v) = %v, want 0", p, got)
		}
	}
	// Single element: every p collapses to that element.
	for _, p := range []float64{-1, 0, 0.001, 50, 99.999, 100, 150} {
		if got := Percentile([]float64{42}, p); got != 42 {
			t.Errorf("Percentile([42], %v) = %v, want 42", p, got)
		}
	}
	// p <= 0 is the minimum and p >= 100 the maximum, exactly.
	xs := []float64{5, 1, 9, 3}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v, want min 1", got)
	}
	if got := Percentile(xs, -0.5); got != 1 {
		t.Errorf("p-0.5 = %v, want min 1", got)
	}
	if got := Percentile(xs, 100); got != 9 {
		t.Errorf("p100 = %v, want max 9", got)
	}
	if got := Percentile(xs, 100.5); got != 9 {
		t.Errorf("p100.5 = %v, want max 9", got)
	}
	// Monotone in p over a fixed sample.
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 2.5 {
		got := Percentile(xs, p)
		if got < prev {
			t.Fatalf("Percentile not monotone in p: p%v = %v < %v", p, got, prev)
		}
		prev = got
	}
}
