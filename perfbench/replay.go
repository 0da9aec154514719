package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"sccsim/internal/asm"
	"sccsim/internal/bpred"
	"sccsim/internal/cache"
	"sccsim/internal/emu"
	"sccsim/internal/harness"
	"sccsim/internal/isa"
	"sccsim/internal/obs"
	"sccsim/internal/pipeline"
	"sccsim/internal/scc"
	"sccsim/internal/simpoint"
	"sccsim/internal/snap"
	"sccsim/internal/uop"
	"sccsim/internal/uopcache"
	"sccsim/internal/vpred"
	"sccsim/internal/workloads"
)

// Replay sizes: each kernel's recorded functional stream, the undo
// window the pipeline's compacted-stream validation uses at most, and
// the budget of the timed Machine.Run per configuration.
const (
	replayUops   = 40_000
	replayWindow = 32
	replayRunUop = 30_000
)

// replayTarget is one kernel and the machine configurations a workload
// runs it under.
type replayTarget struct {
	w    workloads.Workload
	cfgs []pipeline.Config
}

// step is one recorded micro-op of a kernel's functional stream.
type step struct {
	u         uop.UOp
	value     int64
	taken     bool
	target    uint64
	addr      uint64
	endsMacro bool
}

// layerTotals accumulates one layer's time and work over every kernel.
type layerTotals struct {
	ns    float64 // host nanoseconds
	calls float64 // operations timed
	hits  float64 // useful outcomes, for ratios
	base  float64 // attempts the ratio is taken over
}

// replay drives each layer's public API alone over every target kernel
// and reports the per-layer metrics. The layers that only run inside
// Machine.Run (emu, uop, bpred, vpred, cache, uopcache, scc) replay a
// recorded functional stream; the pipeline, snapshot, store, profile and
// manifest layers are timed around direct calls.
func replay(work string, targets []replayTarget, res *benchResult) error {
	dir, err := os.MkdirTemp(work, "replay-store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store := snap.NewStore(dir, 0)
	t := map[string]*layerTotals{}
	get := func(name string) *layerTotals {
		if t[name] == nil {
			t[name] = &layerTotals{}
		}
		return t[name]
	}
	for _, tg := range targets {
		prog := tg.w.Program()
		stream := record(tg.w, prog)
		replayEmu(tg.w, prog, get("emu.step"), get("emu.undo"))
		replayDecode(prog, stream, get("uop.decode"))
		bp := replayBpred(stream, get("bpred"))
		cfg := tg.cfgs[len(tg.cfgs)-1]
		vp, err := replayVpred(cfg, stream, get("vpred"))
		if err != nil {
			return err
		}
		replayCache(cfg, stream, get("cache"))
		replayUopCache(cfg, prog, stream, vp, bp, get("scc"), get("uopcache"))
		replayProfile(tg.w, get("harness.profile"), get("simpoint.select"))
		for i, cfg := range tg.cfgs {
			if err := replayPipeline(tg.w, prog, cfg, i == len(tg.cfgs)-1, store, get); err != nil {
				return fmt.Errorf("%s: %w", tg.w.Name, err)
			}
		}
	}
	per := func(name string, scale float64) (float64, string) {
		l := get(name)
		return l.ns / scale / l.calls, fmt.Sprintf("%.0f calls", l.calls)
	}
	ratio := func(name, what, base string) (float64, string) {
		l := get(name)
		return l.hits / l.base, fmt.Sprintf("%.0f %s of %.0f %s", l.hits, what, l.base, base)
	}
	add := res.layer

	pr := get("pipeline.run")
	add("pipeline.run_ns_per_cycle", "ns", pr.ns/pr.base, fmt.Sprintf("%.0f Machine.Run calls over %.0f simulated cycles", pr.calls, pr.base))
	add("pipeline.run_ns_per_uop", "ns", pr.ns/pr.hits, fmt.Sprintf("%.0f Machine.Run calls over %.0f committed uops", pr.calls, pr.hits))
	al := get("pipeline.allocs")
	add("pipeline.allocs_per_kuop", "count", 1000*al.hits/pr.hits, fmt.Sprintf("%.0f heap allocations over %.0f committed uops", al.hits, pr.hits))
	add("pipeline.sim_cycles", "count", pr.base, fmt.Sprintf("%.0f Machine.Run calls", pr.calls))
	add("pipeline.committed_uops", "count", pr.hits, fmt.Sprintf("%.0f Machine.Run calls", pr.calls))
	v, d := per("pipeline.snapshot", 1e6)
	add("pipeline.snapshot_ms", "ms", v, d)
	sb := get("pipeline.snapshot")
	add("pipeline.snapshot_bytes", "bytes", sb.hits/sb.calls, fmt.Sprintf("mean of %.0f snapshots", sb.calls))
	v, d = per("pipeline.restore", 1e6)
	add("pipeline.restore_ms", "ms", v, d)
	v, d = per("snap.save", 1e6)
	add("snap.save_ms", "ms", v, d)
	v, d = per("snap.load", 1e6)
	add("snap.load_ms", "ms", v, d)
	v, d = per("harness.prepare", 1e6)
	add("harness.prepare_ms", "ms", v, d)
	v, d = per("obs.manifest_encode", 1e3)
	add("obs.manifest_encode_us", "us", v, d)
	v, d = per("obs.config_hash", 1e3)
	add("obs.config_hash_us", "us", v, d)
	v, d = per("emu.step", 1)
	add("emu.step_ns_per_uop", "ns", v, d+" (uops)")
	v, d = per("emu.undo", 1)
	add("emu.undo_ns_per_uop", "ns", v, d+fmt.Sprintf(" (uops in %d-uop undo windows)", replayWindow))
	v, d = per("uop.decode", 1)
	add("uop.decode_ns_per_inst", "ns", v, d+" (Decode+MacroFuse per instruction)")
	v, d = per("bpred", 1)
	add("bpred.ns_per_branch", "ns", v, d+" (predict+update per branch)")
	v, d = ratio("bpred", "mispredictions", "branches")
	add("bpred.mispredict_ratio", "ratio", v, d)
	v, d = per("cache", 1)
	add("cache.ns_per_access", "ns", v, d+" (data accesses)")
	v, d = ratio("cache", "L1D hits", "L1D accesses")
	add("cache.l1d_hit_ratio", "ratio", v, d)
	v, d = per("vpred", 1)
	add("vpred.ns_per_op", "ns", v, d+" (predict+train per value)")
	v, d = ratio("vpred", "stable predictions", "predictions")
	add("vpred.stable_ratio", "ratio", v, d)
	v, d = per("uopcache", 1)
	add("uopcache.select_ns", "ns", v, d+" (Select per fetch line)")
	v, d = ratio("uopcache", "optimized selections", "selections")
	add("uopcache.opt_share", "ratio", v, d)
	v, d = per("scc", 1e3)
	add("scc.compact_us", "us", v, d+" (Compact per hot line)")
	v, d = ratio("scc", "lines produced", "compactions attempted")
	add("scc.line_ratio", "ratio", v, d)
	v, d = per("harness.profile", 1)
	add("harness.profile_ns_per_uop", "ns", v, d+" (profiled uops)")
	v, d = per("simpoint.select", 1e3)
	add("simpoint.select_us", "us", v, d)
	return nil
}

// record steps the kernel functionally and keeps what each uop did.
func record(w workloads.Workload, prog *asm.Program) []step {
	m := newEmu(w, prog)
	out := make([]step, 0, replayUops)
	for len(out) < replayUops {
		res, ok := m.StepUop()
		if !ok {
			break
		}
		out = append(out, step{u: *res.U, value: res.Value, taken: res.Taken, target: res.Target, addr: res.MemAddr, endsMacro: res.EndsMacro})
	}
	return out
}

func newEmu(w workloads.Workload, prog *asm.Program) *emu.Machine {
	m := emu.New(prog)
	if w.MemInit != nil {
		w.MemInit(m.Mem)
	}
	return m
}

// replayEmu times plain functional stepping, then stepping inside undo
// windows that alternately roll back and commit, as the pipeline's
// validation of a compacted stream does.
func replayEmu(w workloads.Workload, prog *asm.Program, plain, undo *layerTotals) {
	m := newEmu(w, prog)
	t0 := time.Now()
	n := 0
	for ; n < replayUops; n++ {
		if _, ok := m.StepUop(); !ok {
			break
		}
	}
	plain.ns += float64(time.Since(t0).Nanoseconds())
	plain.calls += float64(n)

	m = newEmu(w, prog)
	t0 = time.Now()
	n = 0
	for n < replayUops && !m.Halted() {
		for pass := 0; pass < 2; pass++ {
			m.BeginUndo()
			for i := 0; i < replayWindow; i++ {
				if _, ok := m.StepUop(); !ok {
					break
				}
				n++
			}
			if pass == 0 {
				m.Rollback()
			} else {
				m.CommitUndo()
			}
		}
	}
	undo.ns += float64(time.Since(t0).Nanoseconds())
	undo.calls += float64(n)
}

// replayDecode times cracking and fusing every macro instruction of the
// stream.
func replayDecode(prog *asm.Program, stream []step, l *layerTotals) {
	var insts []isa.Inst
	for i := range stream {
		if i > 0 && !stream[i-1].endsMacro {
			continue
		}
		if in, ok := prog.InstAt(stream[i].u.MacroPC); ok {
			insts = append(insts, in)
		}
	}
	t0 := time.Now()
	for _, in := range insts {
		uop.MacroFuse(uop.Decode(in))
	}
	l.ns += float64(time.Since(t0).Nanoseconds())
	l.calls += float64(len(insts))
}

// replayBpred predicts and trains the branch unit on every branch of the
// stream the way the fetch path does, and returns the trained unit.
func replayBpred(stream []step, l *layerTotals) *bpred.Unit {
	bp := bpred.NewUnit()
	var branches, wrong float64
	t0 := time.Now()
	for i := range stream {
		s := &stream[i]
		u := &s.u
		if u.Kind == uop.KMovImm && u.Dst == isa.LR {
			bp.Ras.Push(uint64(u.Imm))
		}
		if !u.IsBranchKind() {
			continue
		}
		branches++
		isRet := u.Kind == uop.KJumpReg && u.Src1 == isa.LR
		cond := u.Kind == uop.KBranch
		direct := u.Target
		if u.Kind == uop.KJumpReg {
			direct = 0
		}
		taken, target, _ := bp.PredictUop(0, u.MacroPC, cond, direct, isRet)
		if taken != s.taken || (s.taken && target != s.target) {
			wrong++
		}
		if cond {
			bp.Dir.Update(u.MacroPC, s.taken)
			if s.taken {
				bp.Btb.Update(u.MacroPC, s.target)
			}
			if s.taken && s.target <= u.MacroPC {
				bp.Lsd.Update(u.MacroPC, true)
			} else if !s.taken {
				bp.Lsd.Update(u.MacroPC, false)
			}
		} else {
			bp.Btb.Update(u.MacroPC, s.target)
			if isRet {
				bp.Ras.Pop()
			} else if u.Kind == uop.KJumpReg {
				bp.Itt.Update(u.MacroPC, s.target)
			}
		}
	}
	l.ns += float64(time.Since(t0).Nanoseconds())
	l.calls += branches
	l.hits += wrong
	l.base += branches
	return bp
}

// trainsValue mirrors which uops train the value predictor.
func trainsValue(u *uop.UOp, fp bool) bool {
	if !u.HasDst() || u.Dst == isa.RegTmp || (u.Dst.IsFP() && !fp) {
		return false
	}
	switch u.Kind {
	case uop.KLoad, uop.KAlu, uop.KMovImm, uop.KMov:
		return true
	}
	return false
}

// replayVpred probes then trains the configured value predictor on every
// value-producing uop, and returns the trained predictor.
func replayVpred(cfg pipeline.Config, stream []step, l *layerTotals) (vpred.Predictor, error) {
	vp := vpred.New(cfg.ValuePredictor)
	if vp == nil {
		return nil, fmt.Errorf("unknown value predictor %q", cfg.ValuePredictor)
	}
	var ops, made, stable float64
	t0 := time.Now()
	for i := range stream {
		u := &stream[i].u
		if !trainsValue(u, cfg.SCC.EnableFPFold) {
			continue
		}
		key := scc.VPKey(u)
		p, ok := vp.Predict(key)
		if ok {
			made++
			if p.Stable {
				stable++
			}
		}
		vp.Train(key, stream[i].value)
		ops++
	}
	l.ns += float64(time.Since(t0).Nanoseconds())
	l.calls += ops
	l.hits += stable
	l.base += made
	return vp, nil
}

// replayCache sends every load and store of the stream through the data
// side of the hierarchy.
func replayCache(cfg pipeline.Config, stream []step, l *layerTotals) {
	h := cache.NewHierarchy(cfg.Hier)
	var n float64
	t0 := time.Now()
	for i := range stream {
		switch stream[i].u.Kind {
		case uop.KLoad:
			h.LoadLatency(stream[i].addr)
			n++
		case uop.KStore:
			h.StoreAccess(stream[i].addr)
			n++
		}
	}
	l.ns += float64(time.Since(t0).Nanoseconds())
	l.calls += n
	st := h.L1D.Stats
	l.hits += float64(st.Hits)
	l.base += float64(st.Hits + st.Misses)
}

// fetchLine is one region-bounded fetch group of the stream.
type fetchLine struct {
	pc   uint64
	uops []uop.UOp
}

// lines cuts the stream into fetch lines the way the fetch path does: a
// line ends at a taken branch, at a code-region boundary between macros,
// or when it is full.
func lines(stream []step) []fetchLine {
	var out []fetchLine
	var cur *fetchLine
	for i := range stream {
		s := &stream[i]
		if cur != nil && i > 0 && stream[i-1].endsMacro && !isa.SameRegion(cur.pc, s.u.MacroPC) {
			cur = nil
		}
		if cur == nil {
			out = append(out, fetchLine{pc: s.u.MacroPC})
			cur = &out[len(out)-1]
		}
		cur.uops = append(cur.uops, s.u)
		if (s.u.IsBranchKind() && s.taken) || len(cur.uops) >= uopcache.MaxLineSlots {
			cur = nil
		}
	}
	for i := range out {
		uop.MacroFuse(out[i].uops)
	}
	return out
}

// replayUopCache fills the unoptimized partition from the stream, runs
// scc.Compact on every hot line with the trained predictors as its
// probes, installs the lines it produces, and then times the fetch
// engine's Select over the stream.
func replayUopCache(cfg pipeline.Config, prog *asm.Program, stream []step, vp vpred.Predictor, bp *bpred.Unit, sccL, selL *layerTotals) {
	uc := uopcache.New(cfg.UC)
	fl := lines(stream)
	freq := map[uint64]int{}
	var order []uint64
	for _, l := range fl {
		if uc.Unopt.Lookup(l.pc) == nil {
			uc.Unopt.Insert(uopcache.NewLine(l.pc, uop.Clone(l.uops), nil))
		}
		if freq[l.pc] == 0 {
			order = append(order, l.pc)
		}
		freq[l.pc]++
	}
	dec := uop.NewDecoder(prog.InstAt)
	env := scc.Env{
		UopsAt:   dec.At,
		Resident: uc.Unopt.RegionResident,
		ProbeValue: func(key uint64) (int64, int, bool) {
			p, ok := vp.Predict(key)
			return p.Value, p.Confidence, ok && p.Stable
		},
		ProbeBranch: bp.Probe,
	}
	if cfg.SCCEnabled && uc.Opt != nil {
		var attempts, produced float64
		t0 := time.Now()
		for _, pc := range order {
			if freq[pc] < cfg.UC.HotThreshold {
				continue
			}
			attempts++
			res := scc.Compact(cfg.SCC, env, pc)
			if res.Line != nil {
				produced++
				scc.InitialConfidence(res.Line.Meta)
				uc.Opt.Insert(res.Line)
			}
		}
		sccL.ns += float64(time.Since(t0).Nanoseconds())
		sccL.calls += attempts
		sccL.hits += produced
		sccL.base += attempts
	}
	vpMatches := func(d uopcache.DataInvariant) bool {
		if d.Occ > 0 {
			return true
		}
		p, ok := vp.Predict(d.Key)
		return ok && p.Value == d.Value
	}
	var scratch []*uopcache.Line
	var sel uopcache.Selection
	var fromOpt float64
	t0 := time.Now()
	for _, l := range fl {
		sel, scratch = uc.Select(l.pc, scratch, vpMatches)
		if sel.FromOpt {
			fromOpt++
		}
	}
	selL.ns += float64(time.Since(t0).Nanoseconds())
	selL.calls += float64(len(fl))
	selL.hits += fromOpt
	selL.base += float64(len(fl))
}

// replayProfile times the SimPoint front end: the functional BBV profile
// and the representative selection.
func replayProfile(w workloads.Workload, prof, sel *layerTotals) {
	t0 := time.Now()
	ivs := harness.ProfileBBV(w, spInterval, w.DefaultMaxUops)
	prof.ns += float64(time.Since(t0).Nanoseconds())
	prof.calls += float64(w.DefaultMaxUops)
	t0 = time.Now()
	simpoint.Select(ivs, spK)
	sel.ns += float64(time.Since(t0).Nanoseconds())
	sel.calls++
}

// replayPipeline times harness.Prepare and Machine.Run (with their heap
// allocations), and for the last configuration also the machine
// snapshot, its store round trip, the restore, and the manifest and
// config-hash encodings of the result.
func replayPipeline(w workloads.Workload, prog *asm.Program, cfg pipeline.Config, full bool, store *snap.Store, get func(string) *layerTotals) error {
	t0 := time.Now()
	m, err := harness.Prepare(cfg, w, harness.Options{MaxUops: replayRunUop})
	if err != nil {
		return err
	}
	lap(get("harness.prepare"), t0)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	t0 = time.Now()
	st, err := m.Run()
	if err != nil {
		return err
	}
	run := get("pipeline.run")
	lap(run, t0)
	runtime.ReadMemStats(&ms)
	get("pipeline.allocs").hits += float64(ms.Mallocs - mallocs)
	run.hits += float64(st.CommittedUops)
	run.base += float64(st.Cycles)
	if !full {
		return nil
	}

	t0 = time.Now()
	data, err := m.Snapshot()
	if err != nil {
		return err
	}
	sn := get("pipeline.snapshot")
	lap(sn, t0)
	sn.hits += float64(len(data))

	key := snap.Key(w.Name, harness.WarmupHash(w.Name, cfg), replayRunUop, 1)
	t0 = time.Now()
	if ok, _ := store.Save(key, data); !ok {
		return fmt.Errorf("snapshot store save failed")
	}
	lap(get("snap.save"), t0)
	t0 = time.Now()
	back := store.Load(key)
	lap(get("snap.load"), t0)
	if !bytes.Equal(back, data) {
		return fmt.Errorf("snapshot store returned different bytes")
	}
	t0 = time.Now()
	if _, err := pipeline.NewMachineFromSnapshot(cfg, prog, data); err != nil {
		return err
	}
	lap(get("pipeline.restore"), t0)

	res := &harness.RunResult{Workload: w.Name, Config: m.Cfg, Stats: st}
	if m.Unit != nil {
		u := m.Unit.Stats
		res.Unit = &u
	}
	var buf bytes.Buffer
	t0 = time.Now()
	if err := res.Manifest().Normalize().Encode(&buf); err != nil {
		return err
	}
	lap(get("obs.manifest_encode"), t0)
	t0 = time.Now()
	obs.ConfigHash(w.Name, m.Cfg)
	lap(get("obs.config_hash"), t0)
	return nil
}

// lap adds one timed call that started at t0.
func lap(l *layerTotals, t0 time.Time) {
	l.ns += float64(time.Since(t0).Nanoseconds())
	l.calls++
}
