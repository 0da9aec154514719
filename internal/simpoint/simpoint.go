// Package simpoint implements a SimPoint-style interval selection and
// weighting harness (§VI): an execution is divided into fixed-length
// intervals, each interval is fingerprinted by its basic-block vector, the
// intervals are clustered (k-medoids on Manhattan distance, as in the
// SimPoint methodology), and a representative interval plus weight is
// produced per cluster. Whole-program metrics are then estimated as the
// weight-sum of per-representative measurements.
package simpoint

import (
	"fmt"
	"sort"
)

// BBV is a basic-block vector: execution counts per basic-block id within
// one interval.
type BBV map[uint64]uint64

// Interval is one profiled execution interval.
type Interval struct {
	Index int
	Vec   BBV
	Uops  uint64
}

// SimPoint is one chosen representative interval with its weight.
type SimPoint struct {
	Interval int     // interval index
	Weight   float64 // fraction of intervals its cluster covers
}

// Profile collects interval fingerprints during a profiling run.
// Consecutive uops of one block form a run, which is added to the
// interval's vector in one step when the block changes or the interval
// closes.
type Profile struct {
	intervalUops uint64
	cur          Interval
	intervals    []Interval
	runPC, run   uint64 // the pending run: its block and its uops
}

// NewProfile creates a profiler with the given interval length in uops
// (the paper uses 100M-instruction intervals; scaled-down runs use less).
func NewProfile(intervalUops uint64) *Profile {
	return &Profile{intervalUops: intervalUops, cur: Interval{Vec: BBV{}}}
}

// Touch records one executed uop attributed to the basic block starting at
// blockPC.
func (p *Profile) Touch(blockPC uint64) {
	if blockPC != p.runPC {
		p.addRun()
		p.runPC = blockPC
	}
	p.run++
	p.cur.Uops++
	if p.cur.Uops >= p.intervalUops {
		p.flush()
	}
}

// addRun adds the pending run to the current interval's vector.
func (p *Profile) addRun() {
	if p.run > 0 {
		p.cur.Vec[p.runPC] += p.run
		p.run = 0
	}
}

func (p *Profile) flush() {
	p.addRun()
	if p.cur.Uops == 0 {
		return
	}
	p.cur.Index = len(p.intervals)
	p.intervals = append(p.intervals, p.cur)
	p.cur = Interval{Vec: BBV{}}
}

// Intervals finalizes and returns all profiled intervals.
func (p *Profile) Intervals() []Interval {
	p.flush()
	return p.intervals
}

// fingerprint is an interval's normalized BBV with its blocks in
// ascending PC order. Select builds one per interval, so distance sums
// the same terms in the same order on every call — summing in map order
// would move the rounding, and with it the near-ties Select breaks,
// from run to run.
type fingerprint struct {
	pcs  []uint64
	frac []float64 // pcs[i]'s share of the interval's uops
}

func newFingerprint(iv Interval) fingerprint {
	if iv.Uops == 0 {
		return fingerprint{}
	}
	f := fingerprint{pcs: make([]uint64, 0, len(iv.Vec))}
	// order-independent: collects the keys, sorted below
	for pc := range iv.Vec {
		f.pcs = append(f.pcs, pc)
	}
	sort.Slice(f.pcs, func(i, j int) bool { return f.pcs[i] < f.pcs[j] })
	f.frac = make([]float64, len(f.pcs))
	for i, pc := range f.pcs {
		f.frac[i] = float64(iv.Vec[pc]) / float64(iv.Uops)
	}
	return f
}

// distance is the L1 (Manhattan) distance between normalized BBVs,
// summed over the union of both block sets in ascending PC order. An
// interval without uops is at distance 1 from everything.
func distance(a, b fingerprint) float64 {
	if len(a.pcs) == 0 || len(b.pcs) == 0 {
		return 1
	}
	d := 0.0
	i, j := 0, 0
	for i < len(a.pcs) || j < len(b.pcs) {
		switch {
		case j == len(b.pcs) || (i < len(a.pcs) && a.pcs[i] < b.pcs[j]):
			d += a.frac[i]
			i++
		case i == len(a.pcs) || b.pcs[j] < a.pcs[i]:
			d += b.frac[j]
			j++
		default:
			d += abs(a.frac[i] - b.frac[j])
			i++
			j++
		}
	}
	return d
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Select clusters the intervals into at most k groups (greedy k-medoids:
// farthest-point seeding followed by assignment) and returns one SimPoint
// per non-empty cluster, weights summing to 1.
func Select(intervals []Interval, k int) []SimPoint {
	n := len(intervals)
	if n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	fps := make([]fingerprint, n)
	for i, iv := range intervals {
		fps[i] = newFingerprint(iv)
	}
	// Farthest-point seeding, deterministic from interval 0.
	medoids := []int{0}
	for len(medoids) < k {
		best, bestD := -1, -1.0
		for i := 0; i < n; i++ {
			dMin := 1e18
			for _, m := range medoids {
				if d := distance(fps[i], fps[m]); d < dMin {
					dMin = d
				}
			}
			if dMin > bestD {
				bestD = dMin
				best = i
			}
		}
		if best < 0 || bestD == 0 {
			break
		}
		medoids = append(medoids, best)
	}
	// Assignment.
	counts := make([]int, len(medoids))
	for i := 0; i < n; i++ {
		bi, bd := 0, 1e18
		for mi, m := range medoids {
			if d := distance(fps[i], fps[m]); d < bd {
				bd = d
				bi = mi
			}
		}
		counts[bi]++
	}
	var out []SimPoint
	for mi, m := range medoids {
		if counts[mi] == 0 {
			continue
		}
		out = append(out, SimPoint{
			Interval: intervals[m].Index,
			Weight:   float64(counts[mi]) / float64(n),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Interval < out[j].Interval })
	return out
}

// WeightedMetric combines per-simpoint measurements into a whole-program
// estimate. metric[i] corresponds to points[i].
func WeightedMetric(points []SimPoint, metric []float64) (float64, error) {
	if len(points) != len(metric) {
		return 0, fmt.Errorf("simpoint: %d points but %d metrics", len(points), len(metric))
	}
	s := 0.0
	for i, p := range points {
		s += p.Weight * metric[i]
	}
	return s, nil
}
