package runner

import (
	"fmt"
	"math"
	"time"

	"sccsim/internal/stats"
)

// JobStats is the telemetry of one scheduled job.
type JobStats struct {
	Name    string
	Index   int           // submission order
	Worker  int           // worker lane that executed (or skipped) the job
	Start   time.Duration // offset from sweep start; zero if skipped
	Wall    time.Duration // zero if skipped
	Uops    uint64        // committed micro-ops (when the result reports them)
	Err     error         // the job's own failure, nil otherwise
	Skipped bool          // cancelled before starting
}

// ProgressEvent is one live progress notification (Config.Progress): the
// sweep's running completion count plus the job that just finished.
type ProgressEvent struct {
	Done    int // jobs finished or skipped so far (including Job)
	Total   int
	Elapsed time.Duration // since sweep start
	Job     JobStats
}

// Summary aggregates a sweep's telemetry.
type Summary struct {
	Jobs      []JobStats
	Workers   int           // pool size actually used
	Wall      time.Duration // whole-sweep wall clock
	TotalUops uint64        // summed over completed jobs
	Completed int
	Failed    int
	Skipped   int
}

// completedWallSecs collects per-job wall seconds for completed jobs.
func (s *Summary) completedWallSecs() []float64 {
	var xs []float64
	for _, j := range s.Jobs {
		if !j.Skipped && j.Err == nil {
			xs = append(xs, j.Wall.Seconds())
		}
	}
	return xs
}

// UopsPerSec returns aggregate throughput: committed micro-ops simulated
// per wall-clock second across the whole sweep.
func (s *Summary) UopsPerSec() float64 {
	return stats.Ratio(float64(s.TotalUops), s.Wall.Seconds())
}

// MeanWall returns the mean per-job wall time over completed jobs.
func (s *Summary) MeanWall() time.Duration {
	return secs(stats.Mean(s.completedWallSecs()))
}

// StddevWall returns the sample standard deviation of per-job wall time.
func (s *Summary) StddevWall() time.Duration {
	return secs(stats.Stddev(s.completedWallSecs()))
}

// PercentileWall returns the p-th percentile of per-job wall time.
func (s *Summary) PercentileWall(p float64) time.Duration {
	return secs(stats.Percentile(s.completedWallSecs(), p))
}

func secs(x float64) time.Duration { return time.Duration(x * float64(time.Second)) }

// String renders a one-line sweep report, e.g.
//
//	42 runs on 8 workers in 1.9s: 4.2M uops, 2.2M uops/s; per-run mean 360ms sd 45ms p95 420ms
func (s *Summary) String() string {
	out := fmt.Sprintf("%d runs on %d workers in %v", len(s.Jobs), s.Workers,
		roundWall(s.Wall))
	if s.Failed > 0 || s.Skipped > 0 {
		out += fmt.Sprintf(" (%d ok, %d failed, %d skipped)", s.Completed, s.Failed, s.Skipped)
	}
	out += fmt.Sprintf(": %s uops, %s uops/s", siCount(float64(s.TotalUops)), siCount(s.UopsPerSec()))
	if s.Completed > 0 {
		out += fmt.Sprintf("; per-run mean %v sd %v p95 %v",
			roundWall(s.MeanWall()), roundWall(s.StddevWall()), roundWall(s.PercentileWall(95)))
	}
	return out
}

// roundWall rounds every duration in the report the same way: whole
// milliseconds, except that sub-millisecond values round to microseconds
// so a fast sweep never prints as "0s".
func roundWall(d time.Duration) time.Duration {
	if d < time.Millisecond {
		return d.Round(time.Microsecond)
	}
	return d.Round(time.Millisecond)
}

// siCount formats a count with an SI suffix (12.3M, 4.56k, 789).
// Non-finite or non-positive inputs (a sweep that completed zero jobs, or
// telemetry assembled from zero durations) render as "0" instead of
// leaking "NaN"/"-Inf" into the report.
func siCount(x float64) string {
	switch {
	case math.IsNaN(x) || x <= 0:
		return "0"
	case math.IsInf(x, 1):
		return "inf"
	case x >= 1e9:
		return fmt.Sprintf("%.2fG", x/1e9)
	case x >= 1e6:
		return fmt.Sprintf("%.2fM", x/1e6)
	case x >= 1e3:
		return fmt.Sprintf("%.2fk", x/1e3)
	default:
		return fmt.Sprintf("%.0f", x)
	}
}
