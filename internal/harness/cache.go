package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"

	"sccsim/internal/obs"
	"sccsim/internal/pipeline"
	"sccsim/internal/power"
	"sccsim/internal/snap"
	"sccsim/internal/workloads"
)

// Result cache (ROADMAP item): manifests double as cache entries, held
// as slots of a snap.Store in the cache directory (atomic writes,
// undecodable slots deleted on load). A run is keyed by obs.ConfigHash
// over (SimVersion, Workload, effective Config), so a simulator-version
// bump invalidates every entry without any eviction logic. Slots use the
// CacheName naming sccbench -json writes, which makes any manifest
// directory a warm cache.

// CacheName is the file name a (workload, config hash) manifest is
// stored under: the slot stem <workload>-<hash12> (snap.Stem) plus
// ".json". With an empty workload it is the "-<hash12>.json" suffix
// every name for that hash ends in. It returns "" when snap.Stem
// rejects the inputs.
func CacheName(workload, hash string) string {
	stem := snap.Stem(workload, hash)
	if stem == "" {
		return ""
	}
	return stem + ".json"
}

// WriteManifest stores man in dir under CacheName through the slot
// store's atomic write and returns the file name. The result cache and
// sccbench -json both write through it.
func WriteManifest(dir string, man *obs.Manifest) (string, error) {
	var buf bytes.Buffer
	if err := man.Encode(&buf); err != nil {
		return "", err
	}
	name := CacheName(man.Workload, man.ConfigHash)
	return name, snap.NewStore(dir, 0).Write(name, buf.Bytes())
}

// errNoStats rejects a slot that decodes but carries no run counters.
var errNoStats = errors.New("harness: cached manifest has no stats")

// readManifest decodes slot name of the cache directory, or returns nil
// on a miss. A slot that does not decode, or decodes without stats, is
// deleted by the store — one torn write cannot poison every later lookup
// of its (workload, config); the next completed run rewrites the slot.
func readManifest(dir, name string) *obs.Manifest {
	var man *obs.Manifest
	snap.NewStore(dir, 0).Read(name, func(data []byte) error {
		var m obs.Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return err
		}
		if m.Stats == nil {
			return errNoStats
		}
		man = &m
		return nil
	})
	return man
}

// loadCached probes the cache directory for a finished run of the
// effective configuration. It returns nil on any miss: absent or
// undecodable slot, hash/version/schema mismatch (a stale entry, missed
// but kept), or a manifest without the interval series or the
// scc_report block the caller asked for. Energy is recomputed from the
// cached counters with the default energy constants, exactly as a fresh
// run computes it.
func loadCached(opts Options, w workloads.Workload, cfg pipeline.Config) *RunResult {
	hash := obs.ConfigHash(w.Name, cfg)
	man := readManifest(opts.CacheDir, CacheName(w.Name, hash))
	if man == nil || man.ConfigHash != hash || man.SimVersion != obs.Version || man.Schema != obs.SchemaVersion {
		return nil
	}
	if opts.SampleEvery > 0 && len(man.Samples) == 0 {
		return nil
	}
	if opts.Journal && man.SCCReport == nil {
		return nil
	}
	return &RunResult{
		Workload:     man.Workload,
		Config:       man.Config,
		Stats:        man.Stats,
		Energy:       power.Energy(power.DefaultParams(), man.Stats, man.Mem),
		Mem:          man.Mem,
		Unit:         man.Unit,
		Samples:      man.Samples,
		FromCache:    true,
		cachedReport: man.SCCReport,
	}
}

// storeCached writes the finished run back into the cache directory.
// Failures are swallowed: the cache is an accelerator, never a
// correctness dependency.
func storeCached(dir string, r *RunResult) {
	WriteManifest(dir, r.Manifest())
}

// Probe exposes the cache read path to other layers — the serving tier
// probes at admission time so a repeated configuration completes
// without ever occupying a worker slot. The work budget is resolved
// exactly as Prepare resolves it (opts.MaxUops, else the workload
// default), so the probe keys on the same effective configuration a
// run would hash. opts also carries the knob that shapes the
// rehydrated result (SampleEvery); it returns nil on any miss.
func Probe(dir string, w workloads.Workload, cfg pipeline.Config, opts Options) *RunResult {
	opts.CacheDir = dir
	cfg.MaxUops = opts.maxUops(w)
	return loadCached(opts, w, cfg)
}

// LookupHash scans the cache directory for a manifest whose ConfigHash
// starts with hash (at least 12 hex characters — the filename stem
// length — up to the full 64). It is the direct cache-probe primitive
// behind sccserve's GET /v1/cache/{hash}: the workload name is not
// known, so names are matched by their CacheName suffix and the decoded
// manifest's full hash is verified. Returns nil when no entry matches.
func LookupHash(dir, hash string) *obs.Manifest {
	if len(hash) < 12 || dir == "" {
		return nil
	}
	suffix := CacheName("", hash)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), suffix) {
			continue
		}
		if man := readManifest(dir, e.Name()); man != nil && strings.HasPrefix(man.ConfigHash, hash) {
			return man
		}
	}
	return nil
}
