package harness

import (
	"bytes"
	"context"
	"testing"

	"sccsim/internal/pipeline"
	"sccsim/internal/scc"
	"sccsim/internal/tracing"
	"sccsim/internal/workloads"
)

func tracedOptions(tr *tracing.Tracer, opts Options) Options {
	opts.Ctx = tracing.NewContext(context.Background(), tr, nil)
	return opts
}

// TestTracingSpanTreeStructure pins parentage: prepare/simulate/finalize
// hang under harness.run, interval spans hang under harness.simulate,
// and a cache-enabled run carries a cache.probe span whose hit attribute
// flips between the cold and warm pass.
func TestTracingSpanTreeStructure(t *testing.T) {
	w, ok := workloads.ByName("mcf")
	if !ok {
		t.Fatal("workload mcf not found")
	}
	cfg := pipeline.IcelakeSCC(scc.LevelFull)
	dir := t.TempDir()

	probeHit := func(tr *tracing.Tracer) bool {
		t.Helper()
		for _, sp := range tr.Spans() {
			if sp.Name != "cache.probe" {
				continue
			}
			for _, a := range sp.Attrs {
				if a.Key == "hit" {
					hit, ok := a.Value.(bool)
					if !ok {
						t.Fatalf("cache.probe hit attr is %T, want bool", a.Value)
					}
					return hit
				}
			}
		}
		t.Fatal("no cache.probe span with a hit attribute")
		return false
	}

	opts := Options{MaxUops: 10000, Parallel: 1, SampleEvery: 4000, CacheDir: dir}
	cold := tracing.New(tracing.MintTraceID())
	if _, err := RunOne(cfg, w, tracedOptions(cold, opts)); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	cold.Finish()
	if probeHit(cold) {
		t.Error("cold run reported a cache hit")
	}

	warm := tracing.New(tracing.MintTraceID())
	if _, err := RunOne(cfg, w, tracedOptions(warm, opts)); err != nil {
		t.Fatalf("warm run: %v", err)
	}
	warm.Finish()
	if !probeHit(warm) {
		t.Error("warm run missed the cache")
	}

	// Structural parentage on the cold (full) tree.
	spans := cold.Spans()
	byName := map[string]tracing.SpanData{}
	for _, sp := range spans {
		if sp.Name != "sample.interval" {
			byName[sp.Name] = sp
		}
	}
	root := byName["harness.run"]
	if root.ParentID != (tracing.SpanID{}) {
		t.Errorf("harness.run has parent %s, want root", root.ParentID)
	}
	for _, child := range []string{"harness.prepare", "cache.probe", "harness.simulate", "harness.finalize"} {
		if byName[child].ParentID != root.SpanID {
			t.Errorf("%s parent = %s, want harness.run (%s)", child, byName[child].ParentID, root.SpanID)
		}
	}
	sim := byName["harness.simulate"]
	intervals := 0
	for _, sp := range spans {
		if sp.Name == "sample.interval" {
			intervals++
			if sp.ParentID != sim.SpanID {
				t.Errorf("sample.interval parent = %s, want harness.simulate (%s)", sp.ParentID, sim.SpanID)
			}
		}
	}
	if intervals == 0 {
		t.Error("no sample.interval spans on a sampled traced run")
	}
	if err := tracing.ValidateTree(spans); err != nil {
		t.Errorf("cold span tree invalid: %v", err)
	}

	// Warm (cache-hit) trees stop at the probe: no simulate span.
	for _, sp := range warm.Spans() {
		if sp.Name == "harness.simulate" || sp.Name == "sample.interval" {
			t.Errorf("cache-hit run unexpectedly carries span %q", sp.Name)
		}
	}
}

// TestTracingNormalizedByteStable pins the determinism contract end to
// end: two identical runs under the same trace id export byte-identical
// normalized OTLP documents even though their wall-clock spans differ.
func TestTracingNormalizedByteStable(t *testing.T) {
	w, ok := workloads.ByName("mcf")
	if !ok {
		t.Fatal("workload mcf not found")
	}
	cfg := pipeline.IcelakeSCC(scc.LevelFull)
	opts := Options{MaxUops: 10000, Parallel: 1, SampleEvery: 4000}
	id := tracing.MintTraceID()

	export := func() []byte {
		t.Helper()
		tr := tracing.New(id)
		if _, err := RunOne(cfg, w, tracedOptions(tr, opts)); err != nil {
			t.Fatalf("RunOne: %v", err)
		}
		tr.Finish()
		var buf bytes.Buffer
		if err := tracing.EncodeOTLP(&buf, "sccsim-test", tracing.NormalizeSpans(tr.Spans())); err != nil {
			t.Fatalf("EncodeOTLP: %v", err)
		}
		return buf.Bytes()
	}

	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Errorf("normalized traces differ across identical runs:\n--- a\n%s\n--- b\n%s", a, b)
	}
}

// BenchmarkTraceOverhead measures the cost tracing adds to a full run —
// the number the "pure tap, cheap when on" claim rests on.
func BenchmarkTraceOverhead(b *testing.B) {
	w, ok := workloads.ByName("mcf")
	if !ok {
		b.Fatal("workload mcf not found")
	}
	cfg := pipeline.IcelakeSCC(scc.LevelFull)
	opts := Options{MaxUops: 5000, Parallel: 1, SampleEvery: 1000}

	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunOne(cfg, w, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := tracing.New(tracing.MintTraceID())
			if _, err := RunOne(cfg, w, tracedOptions(tr, opts)); err != nil {
				b.Fatal(err)
			}
			tr.Finish()
		}
	})
}
