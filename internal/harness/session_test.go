package harness

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"sccsim/internal/pipeline"
	"sccsim/internal/scc"
)

// sessionFigure runs one figure in a session and returns its rendered
// tables and its sweep.
type sessionFigure struct {
	name string
	run  func(*Session, Options) ([]byte, Sweep, error)
}

// tablesOf renders a figure's tables.
func tablesOf(f interface{ Write(io.Writer) }) []byte {
	var buf bytes.Buffer
	f.Write(&buf)
	return buf.Bytes()
}

// sharedFigures lists Fig7, Fig6, Fig8 and Fig9 in a mixed order: Fig6
// reuses Fig7's runs, Fig8 reuses all of its runs, and Fig9 reuses the
// baseline and full SCC, which is its EVES variant.
var sharedFigures = []sessionFigure{
	{"fig7", func(s *Session, o Options) ([]byte, Sweep, error) {
		f, err := s.Fig7(o)
		if err != nil {
			return nil, Sweep{}, err
		}
		return tablesOf(f), f.Sweep, nil
	}},
	{"fig6", func(s *Session, o Options) ([]byte, Sweep, error) {
		f, err := s.Fig6(o)
		if err != nil {
			return nil, Sweep{}, err
		}
		return tablesOf(f), f.Sweep, nil
	}},
	{"fig8", func(s *Session, o Options) ([]byte, Sweep, error) {
		f, err := s.Fig8(o)
		if err != nil {
			return nil, Sweep{}, err
		}
		return tablesOf(f), f.Sweep, nil
	}},
	{"fig9", func(s *Session, o Options) ([]byte, Sweep, error) {
		f, err := s.Fig9(o)
		if err != nil {
			return nil, Sweep{}, err
		}
		return tablesOf(f), f.Sweep, nil
	}},
}

// TestSessionSimulatesEachRunOnce runs the figures in one session: each
// renders the bytes it renders in a fresh session, the session simulates
// each distinct (configuration, workload) once, and OnResult still sees
// every cell of every grid, in [configuration][workload] order.
func TestSessionSimulatesEachRunOnce(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
			opts := smallOpts(t, "xalancbmk", "mcf")
			opts.MaxUops = 15_000
			opts.Parallel = parallel
			s := NewSession()
			jobs := 0
			for _, fig := range sharedFigures {
				fresh, _, err := fig.run(NewSession(), opts)
				if err != nil {
					t.Fatal(err)
				}
				cells := 0
				shared := opts
				shared.OnResult = func(i int, r *RunResult) {
					if i != cells {
						t.Errorf("%s: cell %d handed over as %d", fig.name, cells, i)
					}
					if want := opts.Workloads[i%len(opts.Workloads)].Name; r.Workload != want {
						t.Errorf("%s: cell %d ran %s, want %s", fig.name, i, r.Workload, want)
					}
					cells++
				}
				got, sw, err := fig.run(s, shared)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, fresh) {
					t.Errorf("%s in a shared session differs from a fresh session:\n%s\n--- fresh ---\n%s", fig.name, got, fresh)
				}
				if n := len(sw.Timing.Jobs) + sw.Reused; n != cells {
					t.Errorf("%s: %d simulated + %d reused, but OnResult saw %d cells", fig.name, len(sw.Timing.Jobs), sw.Reused, cells)
				}
				jobs += len(sw.Timing.Jobs)
			}
			// Fig6's six levels, among them Fig7's and Fig8's baseline and
			// full SCC, plus Fig9's H3VP variant: its EVES variant is full
			// SCC.
			if want := 7 * len(opts.Workloads); jobs != want {
				t.Errorf("the session simulated %d runs, want %d", jobs, want)
			}
		})
	}
}

// TestFig6RunSharesNothing: without a session every call simulates every
// run, so a benchmark that times repeated Fig6Run sweeps keeps timing
// simulations.
func TestFig6RunSharesNothing(t *testing.T) {
	opts := smallOpts(t, "xalancbmk", "mcf")
	opts.MaxUops = 5_000
	for call := 0; call < 2; call++ {
		f, err := Fig6Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(scc.Levels()) * len(opts.Workloads); len(f.Timing.Jobs) != want || f.Reused != 0 {
			t.Errorf("call %d simulated %d runs and reused %d, want %d and 0", call, len(f.Timing.Jobs), f.Reused, want)
		}
	}
}

// TestFailedSweepRecordsNothing: a grid whose sweep fails leaves the
// session as it was, so a later figure simulates the runs again.
func TestFailedSweepRecordsNothing(t *testing.T) {
	opts := smallOpts(t, "xalancbmk")
	opts.MaxUops = 5_000
	s := NewSession()
	failing := opts
	failing.Observe = func(*pipeline.Machine) { panic("observer failed") }
	if _, err := s.Fig8(failing); err == nil {
		t.Fatal("a panicking observer did not fail the sweep")
	}
	f, err := s.Fig8(opts)
	if err != nil {
		t.Fatal(err)
	}
	if f.Reused != 0 || len(f.Timing.Jobs) != 2 {
		t.Errorf("after a failed sweep Fig8 simulated %d runs and reused %d, want 2 and 0", len(f.Timing.Jobs), f.Reused)
	}
}
