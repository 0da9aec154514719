package main

import (
	"fmt"
	"sort"
)

// reportSpans writes the traced phase's span self times, by span name,
// and the workload's own layer counters into the detail lines. These
// cover the layers a single workload exercises (the service, the
// snapshot store, the sweep pool), so they are reported per workload
// rather than as result-line metrics, which every workload must carry.
func reportSpans(res *benchResult, rec *recorder) {
	st := selfTimes(rec.spans)
	names := sortedKeys(st)
	sort.SliceStable(names, func(i, j int) bool { return st[names[i]].self > st[names[j]].self })
	res.note("spans of the traced phase (%d operations): name, calls, self ms per call, total self ms", len(rec.latencies))
	for _, n := range names {
		s := st[n]
		res.note("span  %-28s %7d calls %10.4f ms/call self %10.1f ms self", n, s.count,
			s.self.Seconds()*1e3/float64(s.count), s.self.Seconds()*1e3)
	}
	perCall := func(name, span string) {
		if s := st[span]; s != nil {
			res.note("layer %-28s %14.4f ms     self time of %d %s spans", name, s.self.Seconds()*1e3/float64(s.count), s.count, span)
		}
	}
	perCall("harness.finalize_ms", "harness.finalize")
	perCall("harness.cache_probe_ms", "cache.probe")
	perCall("snap.load_span_ms", "snapshot.load")
	perCall("snap.save_span_ms", "snapshot.save")
	perCall("serve.queue_wait_ms", "queue.wait")
	perCall("serve.worker_run_ms", "worker.run")
	if a, p := st["admission.validate"], st["cache.probe"]; a != nil && p != nil {
		res.note("layer %-28s %14.4f ms     admission.validate + cache.probe self time (admission and miss-path probes) per request, %d requests",
			"serve.admission_ms", (a.self+p.self).Seconds()*1e3/float64(a.count), a.count)
	}
	c := rec.counters
	ratio := func(name string, num, den float64, what, base string) {
		if den > 0 {
			res.note("layer %-28s %14.4f ratio  %.3f %s of %.3f %s", name, num/den, num, what, den, base)
		}
	}
	if n := c["runner.jobs"]; n > 0 {
		res.note("layer %-28s %14.4f ms     mean pool wait over %.0f sweep jobs", "runner.wait_ms", c["runner.wait_ms"]/n, n)
		ratio("runner.idle_ratio", c["runner.capacity_s"]-c["runner.busy_s"], c["runner.capacity_s"], "worker-s idle", "worker-s")
	}
	if n := c["snapshot.passes"]; n > 0 {
		res.note("layer %-28s %14.4f ms     mean over %.0f cold passes", "snapshot.cold_ms", c["snapshot.cold_ms"]/n, n)
		res.note("layer %-28s %14.4f ms     mean over %.0f warm passes", "snapshot.warm_ms", c["snapshot.warm_ms"]/n, n)
	}
	if n := c["serve.requests"]; n > 0 {
		ratio("serve.hit_ratio", c["serve.hits"], n, "cache hits", "requests")
		ratio("serve.rejected_ratio", c["serve.rejected"], n, "429 rejections", "requests")
		res.note("layer %-28s %14.4f ms     mean generator lateness over %.0f requests", "serve.gen_late_ms", c["serve.gen_late_ms"]/n, n)
	}
	for _, d := range rec.detail {
		res.note("%s", d)
	}
}

// perLayer lists the result-line metrics of a traced run, in the order
// BENCHMARK.json names them; bench checks that each was produced.
var perLayer = []string{
	"pipeline.run_ns_per_cycle", "pipeline.run_ns_per_uop", "pipeline.allocs_per_kuop",
	"pipeline.sim_cycles", "pipeline.committed_uops",
	"pipeline.snapshot_ms", "pipeline.snapshot_bytes", "pipeline.restore_ms",
	"snap.save_ms", "snap.load_ms",
	"harness.prepare_ms", "harness.profile_ns_per_uop", "simpoint.select_us",
	"obs.manifest_encode_us", "obs.config_hash_us",
	"emu.step_ns_per_uop", "emu.undo_ns_per_uop", "uop.decode_ns_per_inst",
	"bpred.ns_per_branch", "bpred.mispredict_ratio",
	"cache.ns_per_access", "cache.l1d_hit_ratio",
	"vpred.ns_per_op", "vpred.stable_ratio",
	"uopcache.select_ns", "uopcache.opt_share",
	"scc.compact_us", "scc.line_ratio",
	"tracing.overhead_pct",
}

func checkPerLayer(res *benchResult) error {
	for _, n := range perLayer {
		if _, ok := res.out.Metrics[n]; !ok {
			return fmt.Errorf("traced run produced no %s", n)
		}
	}
	if len(res.out.Metrics) != len(perLayer) {
		return fmt.Errorf("traced run produced %d metrics, want %d", len(res.out.Metrics), len(perLayer))
	}
	return nil
}
