package harness

import (
	"bytes"
	"strings"
	"testing"

	"sccsim/internal/obs"
	"sccsim/internal/pipeline"
	"sccsim/internal/scc"
	"sccsim/internal/telemetry"
	"sccsim/internal/tracing"
	"sccsim/internal/workloads"
)

// The taps Options can attach to a run, as bits of a tap set.
const (
	tapJournal  = 1 << iota // Journal: the SCC opt-report aggregator
	tapSampler              // SampleEvery: interval telemetry
	tapLogger               // a Debug-level Logger, which adds the journal logging tee
	tapTracer               // a span tracer bound into Ctx
	tapPipeview             // an obs.PipeTracer attached through Observe
	numTaps     = iota
)

var tapNames = [numTaps]string{"journal", "sampler", "logger", "tracer", "pipeview"}

// tapSetName names a tap set for its subtest: "none" or the taps joined
// by "+".
func tapSetName(set int) string {
	var on []string
	for i, name := range tapNames {
		if set&(1<<i) != 0 {
			on = append(on, name)
		}
	}
	if len(on) == 0 {
		return "none"
	}
	return strings.Join(on, "+")
}

// TestPureTaps pins every observer Options can attach as a pure tap. For
// each on/off combination of the five taps, the run's normalized
// manifest must be byte-identical to the bare run's — or, with sampling
// on, to the sampler-only run's, because sampling adds the Samples
// series. The full-SCC config runs every combination; the baseline
// config runs the journal on and off. Each tap must also have seen the
// run, so a tap that silently detached cannot pass. If instrumentation
// ever feeds back into simulation state, this test is the tripwire.
func TestPureTaps(t *testing.T) {
	w, ok := workloads.ByName("xalancbmk")
	if !ok {
		t.Fatal("workload xalancbmk not found")
	}
	var all []int
	for set := 0; set < 1<<numTaps; set++ {
		all = append(all, set)
	}
	configs := []struct {
		name string
		cfg  pipeline.Config
		sets []int // ascending, so each set's reference run comes first
	}{
		{"scc-full", pipeline.IcelakeSCC(scc.LevelFull), all},
		{"baseline", pipeline.Icelake(), []int{0, tapJournal}},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			manifests := map[int][]byte{}
			for _, set := range c.sets {
				t.Run(tapSetName(set), func(t *testing.T) {
					got := runTapped(t, c.cfg, w, set)
					manifests[set] = got
					ref, ok := manifests[set&tapSampler]
					if !ok {
						t.Fatalf("reference run %s failed", tapSetName(set&tapSampler))
					}
					if !bytes.Equal(got, ref) {
						t.Errorf("taps altered the manifest:\nwith %s:\n%s\nwith %s:\n%s",
							tapSetName(set), got, tapSetName(set&tapSampler), ref)
					}
					if set == tapSampler && bytes.Equal(got, manifests[0]) {
						t.Error("sampled manifest identical to the bare manifest (sampler not attached?)")
					}
				})
			}
		})
	}
}

// runTapped runs w under cfg with the taps in set attached, checks that
// each tap observed the run, and returns the normalized manifest.
func runTapped(t *testing.T, cfg pipeline.Config, w workloads.Workload, set int) []byte {
	t.Helper()
	opts := Options{
		MaxUops:  20_000,
		Parallel: 1,
		Journal:  set&tapJournal != 0,
	}
	if set&tapSampler != 0 {
		opts.SampleEvery = 5000
	}
	var logBuf bytes.Buffer
	if set&tapLogger != 0 {
		logger, err := telemetry.NewLogger(&logBuf, "debug", "json")
		if err != nil {
			t.Fatalf("NewLogger: %v", err)
		}
		opts.Logger = logger.With("request_id", telemetry.NewRequestID())
	}
	var tr *tracing.Tracer
	if set&tapTracer != 0 {
		tr = tracing.New(tracing.MintTraceID())
		opts = tracedOptions(tr, opts)
	}
	var pipe *obs.PipeTracer
	if set&tapPipeview != 0 {
		pipe = obs.NewPipeTracer(obs.DefaultPipeTraceLimit)
		opts.Observe = pipe.Attach
	}

	res, err := RunOne(cfg, w, opts)
	if err != nil {
		t.Fatalf("RunOne: %v", err)
	}

	if opts.Journal != (res.OptReport != nil) {
		t.Errorf("Journal=%v but OptReport presence=%v", opts.Journal, res.OptReport != nil)
	}
	if opts.Journal && res.Manifest().SCCReport == nil {
		t.Error("journaled manifest missing the scc_report block")
	}
	if opts.Logger != nil {
		// Lifecycle events plus journal events, all carrying the bound
		// correlation ID.
		out := logBuf.String()
		for _, want := range []string{"harness run start", "harness run done", "runner job done", "scc job", "request_id"} {
			if !strings.Contains(out, want) {
				t.Errorf("log output missing %q; got:\n%s", want, out)
			}
		}
	}
	if tr != nil {
		tr.Finish()
		names := map[string]int{}
		for _, sp := range tr.Spans() {
			names[sp.Name]++
		}
		for _, want := range []string{"harness.run", "harness.prepare", "harness.simulate", "harness.finalize"} {
			if names[want] != 1 {
				t.Errorf("span %q count = %d, want 1 (spans: %v)", want, names[want], names)
			}
		}
		if n := names["sample.interval"]; opts.SampleEvery > 0 && n < 2 {
			t.Errorf("sample.interval spans = %d, want >= 2 (20000 uops / 5000 window)", n)
		} else if opts.SampleEvery == 0 && n != 0 {
			t.Errorf("sample.interval spans = %d without sampling, want 0", n)
		}
		if err := tracing.ValidateTree(tr.Spans()); err != nil {
			t.Errorf("traced run span tree invalid: %v", err)
		}
	}
	if pipe != nil && pipe.Total() == 0 {
		t.Error("pipeline tracer recorded no micro-ops")
	}

	var buf bytes.Buffer
	if err := res.Manifest().Normalize().Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}
