package simpoint

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func mkInterval(idx int, blocks map[uint64]uint64) Interval {
	var uops uint64
	for _, v := range blocks {
		uops += v
	}
	return Interval{Index: idx, Vec: blocks, Uops: uops}
}

func TestProfileSlicesIntervals(t *testing.T) {
	p := NewProfile(100)
	for i := 0; i < 250; i++ {
		p.Touch(uint64(0x1000 + (i%4)*32))
	}
	ivs := p.Intervals()
	if len(ivs) != 3 {
		t.Fatalf("got %d intervals, want 3 (100+100+50)", len(ivs))
	}
	if ivs[0].Uops != 100 || ivs[2].Uops != 50 {
		t.Errorf("interval sizes: %d, %d", ivs[0].Uops, ivs[2].Uops)
	}
	if ivs[0].Index != 0 || ivs[2].Index != 2 {
		t.Error("interval indices wrong")
	}
}

// TestProfileRunsMatchPerUopCounts checks the run-length Profile
// against a reference that counts every uop into the vector on its own:
// random block sequences of short and long runs, at interval lengths
// where runs straddle interval boundaries, must give identical
// intervals.
func TestProfileRunsMatchPerUopCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, ivUops := range []uint64{1, 3, 100} {
		for trial := 0; trial < 50; trial++ {
			var blocks []uint64
			for len(blocks) < 1000 {
				// Few distinct blocks, so a block recurs after others and
				// a run may repeat its predecessor's block.
				pc := uint64(rng.Intn(6)) * 0x40
				for n := 1 + rng.Intn(1+rng.Intn(250)); n > 0; n-- {
					blocks = append(blocks, pc)
				}
			}
			blocks = blocks[:rng.Intn(len(blocks)+1)]

			p := NewProfile(ivUops)
			var want []Interval
			cur := Interval{Vec: BBV{}}
			for _, pc := range blocks {
				p.Touch(pc)
				cur.Vec[pc]++
				cur.Uops++
				if cur.Uops == ivUops {
					cur.Index = len(want)
					want = append(want, cur)
					cur = Interval{Vec: BBV{}}
				}
			}
			if cur.Uops > 0 {
				cur.Index = len(want)
				want = append(want, cur)
			}
			if got := p.Intervals(); !reflect.DeepEqual(got, want) {
				t.Fatalf("interval %d uops, trial %d (%d uops): run-length profile differs from per-uop counts", ivUops, trial, len(blocks))
			}
		}
	}
}

func TestDistanceProperties(t *testing.T) {
	a := newFingerprint(mkInterval(0, map[uint64]uint64{1: 50, 2: 50}))
	b := newFingerprint(mkInterval(1, map[uint64]uint64{1: 50, 2: 50}))
	c := newFingerprint(mkInterval(2, map[uint64]uint64{3: 100}))
	if d := distance(a, b); d != 0 {
		t.Errorf("identical distributions distance = %v", d)
	}
	if d := distance(a, c); math.Abs(d-2) > 1e-12 {
		t.Errorf("disjoint distributions distance = %v, want 2", d)
	}
	if distance(a, c) != distance(c, a) {
		t.Error("distance must be symmetric")
	}
}

func TestSelectFindsPhases(t *testing.T) {
	// Two clear phases: blocks {1,2} then blocks {9,10}.
	var ivs []Interval
	for i := 0; i < 6; i++ {
		ivs = append(ivs, mkInterval(i, map[uint64]uint64{1: 80, 2: 20}))
	}
	for i := 6; i < 10; i++ {
		ivs = append(ivs, mkInterval(i, map[uint64]uint64{9: 50, 10: 50}))
	}
	pts := Select(ivs, 2)
	if len(pts) != 2 {
		t.Fatalf("got %d simpoints, want 2", len(pts))
	}
	wsum := 0.0
	for _, p := range pts {
		wsum += p.Weight
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Errorf("weights sum to %v", wsum)
	}
	// The weights must reflect the 6/4 phase split.
	w := map[bool]float64{} // phase1?
	for _, p := range pts {
		w[p.Interval < 6] += p.Weight
	}
	if math.Abs(w[true]-0.6) > 1e-9 || math.Abs(w[false]-0.4) > 1e-9 {
		t.Errorf("phase weights = %v", w)
	}
}

func TestSelectDegenerateCases(t *testing.T) {
	if pts := Select(nil, 3); pts != nil {
		t.Error("no intervals should yield no simpoints")
	}
	one := []Interval{mkInterval(0, map[uint64]uint64{1: 10})}
	pts := Select(one, 5)
	if len(pts) != 1 || pts[0].Weight != 1 {
		t.Errorf("single interval: %+v", pts)
	}
	// Identical intervals collapse into one cluster.
	same := []Interval{
		mkInterval(0, map[uint64]uint64{1: 10}),
		mkInterval(1, map[uint64]uint64{1: 10}),
		mkInterval(2, map[uint64]uint64{1: 10}),
	}
	pts = Select(same, 3)
	total := 0.0
	for _, p := range pts {
		total += p.Weight
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("weights sum to %v", total)
	}
}

func TestWeightedMetric(t *testing.T) {
	pts := []SimPoint{{Interval: 0, Weight: 0.25}, {Interval: 1, Weight: 0.75}}
	v, err := WeightedMetric(pts, []float64{4, 8})
	if err != nil || v != 7 {
		t.Errorf("weighted = %v, %v", v, err)
	}
	if _, err := WeightedMetric(pts, []float64{1}); err == nil {
		t.Error("length mismatch must error")
	}
}
