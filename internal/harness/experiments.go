package harness

import (
	"fmt"
	"io"

	"sccsim/internal/pipeline"
	"sccsim/internal/power"
	"sccsim/internal/scc"
	"sccsim/internal/stats"
)

// ---------------------------------------------------------------------------
// Table I — microarchitectural configuration.

// WriteTable1 prints the baseline configuration (Table I).
func WriteTable1(w io.Writer) {
	cfg := pipeline.Icelake()
	section(w, "Table I: Microarchitectural Configuration Parameters")
	t := newTable("Parameter", "Value")
	t.row("Frequency", "2.4 GHz")
	t.row("Fetch width", fmt.Sprintf("%d fused uops", cfg.FetchWidth))
	t.row("Decode width", fmt.Sprintf("%d macro-ops", cfg.DecodeWidth))
	t.row("uop cache", fmt.Sprintf("%d uops, %d-way",
		cfg.UC.UnoptSets*cfg.UC.UnoptWays*6, cfg.UC.UnoptWays))
	t.row("IDQ", fmt.Sprintf("%d entries", cfg.IDQSize))
	t.row("ROB", fmt.Sprintf("%d entries", cfg.ROBSize))
	t.row("IQ", fmt.Sprintf("%d entries", cfg.IQSize))
	t.row("LSQ", fmt.Sprintf("%d entries", cfg.LSQSize))
	t.row("Branch predictor", "TAGE-lite + BTB + RAS + LSD")
	t.row("Value predictor", cfg.ValuePredictor)
	t.row("L1I cache", fmt.Sprintf("%d KB, %d-way, LRU", cfg.Hier.L1I.SizeBytes()/1024, cfg.Hier.L1I.Ways))
	t.row("L1D cache", fmt.Sprintf("%d KB, %d-way, LRU", cfg.Hier.L1D.SizeBytes()/1024, cfg.Hier.L1D.Ways))
	t.row("L2 cache", fmt.Sprintf("%d KB, %d-way, LRU", cfg.Hier.L2.SizeBytes()/1024, cfg.Hier.L2.Ways))
	t.row("L3 cache", fmt.Sprintf("%d MB, %d-way, Random", cfg.Hier.L3.SizeBytes()/(1<<20), cfg.Hier.L3.Ways))
	t.row("DRAM latency", fmt.Sprintf("%d cycles", cfg.Hier.DRAMLatency))
	t.write(w)
}

// ---------------------------------------------------------------------------
// Figure 6 — compaction, execution time, squash overhead per level.

// Fig6 holds the Figure 6 series: [level][workload].
type Fig6 struct {
	Names    []string
	Levels   []scc.Level
	NormUops [][]float64 // committed uops normalized to baseline
	NormTime [][]float64 // cycles normalized to baseline
	Squash   [][]float64 // squash-cycle fraction
	// Per-category dynamic elimination fractions at full SCC.
	MoveFrac, FoldFrac, BranchFrac []float64
	Sweep
}

// Fig6 regenerates Figure 6's three panels.
func (s *Session) Fig6(opts Options) (*Fig6, error) {
	levels := scc.Levels()
	cfgs := make([]pipeline.Config, len(levels))
	for i, lv := range levels {
		cfgs[i] = pipeline.IcelakeSCC(lv)
	}
	g, sw, err := s.grid(opts, cfgs...)
	if err != nil {
		return nil, err
	}
	f := &Fig6{
		Names:    opts.names(),
		Levels:   levels,
		NormUops: ratios(g, g[0], committedUops),
		NormTime: ratios(g, g[0], cycles),
		Squash:   each(g, func(r *RunResult) float64 { return r.Stats.SquashOverhead() }),
		Sweep:    sw,
	}
	for _, r := range g[f.FullIdx()] {
		st := r.Stats
		total := float64(st.CommittedUops + st.EliminatedUops())
		f.MoveFrac = append(f.MoveFrac, stats.Ratio(float64(st.ElimMove), total))
		f.FoldFrac = append(f.FoldFrac, stats.Ratio(float64(st.ElimFold), total))
		f.BranchFrac = append(f.BranchFrac, stats.Ratio(float64(st.ElimBranch), total))
	}
	return f, nil
}

// Fig6Run regenerates Figure 6 without a session: it simulates every
// run, in [level][workload] order.
func Fig6Run(opts Options) (*Fig6, error) { return (*Session)(nil).Fig6(opts) }

// FullIdx returns the index of the full-SCC level.
func (f *Fig6) FullIdx() int { return len(f.Levels) - 1 }

// AvgReduction returns the mean dynamic uop reduction at full SCC.
func (f *Fig6) AvgReduction() float64 {
	var red []float64
	for _, u := range f.NormUops[f.FullIdx()] {
		red = append(red, 1-u)
	}
	return stats.Mean(red)
}

// AvgSpeedup returns the geometric-mean speedup at full SCC.
func (f *Fig6) AvgSpeedup() float64 {
	var sp []float64
	for _, t := range f.NormTime[f.FullIdx()] {
		sp = append(sp, stats.Ratio(1, t))
	}
	return stats.GeoMean(sp)
}

// Write prints the three panels.
func (f *Fig6) Write(w io.Writer) {
	section(w, "Figure 6 (top): Committed micro-op count, normalized to baseline")
	t := newTable(append([]string{"benchmark"}, levelNames(f.Levels)...)...)
	for wi, name := range f.Names {
		var vals []float64
		for li := range f.Levels {
			vals = append(vals, f.NormUops[li][wi])
		}
		t.rowf(name, "%.3f", vals...)
	}
	t.write(w)
	fmt.Fprintf(w, "elimination breakdown at full SCC (fraction of dynamic uops): move=%s fold=%s branch=%s\n",
		stats.Pct(stats.Mean(f.MoveFrac)), stats.Pct(stats.Mean(f.FoldFrac)), stats.Pct(stats.Mean(f.BranchFrac)))
	fmt.Fprintf(w, "average dynamic uop reduction (full SCC): %s\n", stats.Pct(f.AvgReduction()))

	section(w, "Figure 6 (middle): Execution time, normalized to baseline")
	t = newTable(append([]string{"benchmark"}, levelNames(f.Levels)...)...)
	for wi, name := range f.Names {
		var vals []float64
		for li := range f.Levels {
			vals = append(vals, f.NormTime[li][wi])
		}
		t.rowf(name, "%.3f", vals...)
	}
	t.write(w)
	fmt.Fprintf(w, "geomean speedup (full SCC): %.2fx\n", f.AvgSpeedup())

	section(w, "Figure 6 (bottom): Squash overhead (fraction of cycles)")
	t = newTable(append([]string{"benchmark"}, levelNames(f.Levels)...)...)
	for wi, name := range f.Names {
		var vals []float64
		for li := range f.Levels {
			vals = append(vals, f.Squash[li][wi])
		}
		t.rowf(name, "%.4f", vals...)
	}
	t.write(w)
}

func levelNames(levels []scc.Level) []string {
	var out []string
	for _, l := range levels {
		out = append(out, l.String())
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 7 — fetch-source mix.

// Fig7 holds per-workload fetch-source fractions for baseline and SCC.
type Fig7 struct {
	Names                       []string
	BaseDecode, BaseUnopt       []float64
	SCCDecode, SCCUnopt, SCCOpt []float64
	Sweep
}

// Fig7 regenerates Figure 7.
func (s *Session) Fig7(opts Options) (*Fig7, error) {
	g, sw, err := s.grid(opts, pipeline.Icelake(), pipeline.IcelakeSCC(scc.LevelFull))
	if err != nil {
		return nil, err
	}
	f := &Fig7{Names: opts.names(), Sweep: sw}
	for wi := range f.Names {
		base, withSCC := g[0][wi].Stats, g[1][wi].Stats
		bt := float64(base.TotalFetchedSlots())
		st := float64(withSCC.TotalFetchedSlots())
		f.BaseDecode = append(f.BaseDecode, stats.Ratio(float64(base.UopsFromDecode), bt))
		f.BaseUnopt = append(f.BaseUnopt, stats.Ratio(float64(base.UopsFromUnopt), bt))
		f.SCCDecode = append(f.SCCDecode, stats.Ratio(float64(withSCC.UopsFromDecode), st))
		f.SCCUnopt = append(f.SCCUnopt, stats.Ratio(float64(withSCC.UopsFromUnopt), st))
		f.SCCOpt = append(f.SCCOpt, stats.Ratio(float64(withSCC.UopsFromOpt), st))
	}
	return f, nil
}

// Write prints the mix table.
func (f *Fig7) Write(w io.Writer) {
	section(w, "Figure 7: Micro-ops sourced per fetch path (fractions)")
	t := newTable("benchmark", "base:icache", "base:uopcache", "scc:icache", "scc:unopt", "scc:opt")
	for i, name := range f.Names {
		t.rowf(name, "%.3f", f.BaseDecode[i], f.BaseUnopt[i], f.SCCDecode[i], f.SCCUnopt[i], f.SCCOpt[i])
	}
	t.write(w)
	fmt.Fprintf(w, "mean optimized-partition share under SCC: %s\n", stats.Pct(stats.Mean(f.SCCOpt)))
}

// ---------------------------------------------------------------------------
// Figure 8 — energy.

// Fig8 holds per-workload normalized energy.
type Fig8 struct {
	Names      []string
	NormEnergy []float64 // SCC energy / baseline energy
	Sweep
}

// Fig8 regenerates Figure 8.
func (s *Session) Fig8(opts Options) (*Fig8, error) {
	g, sw, err := s.grid(opts, pipeline.Icelake(), pipeline.IcelakeSCC(scc.LevelFull))
	if err != nil {
		return nil, err
	}
	return &Fig8{
		Names:      opts.names(),
		NormEnergy: ratios(g[1:], g[0], (*RunResult).EnergyJ)[0],
		Sweep:      sw,
	}, nil
}

// AvgSavings returns the mean energy saving fraction.
func (f *Fig8) AvgSavings() float64 {
	var s []float64
	for _, e := range f.NormEnergy {
		s = append(s, 1-e)
	}
	return stats.Mean(s)
}

// Write prints the energy table.
func (f *Fig8) Write(w io.Writer) {
	section(w, "Figure 8: Energy consumption, normalized to baseline")
	t := newTable("benchmark", "scc energy", "saving")
	for i, name := range f.Names {
		t.row(name, fmt.Sprintf("%.3f", f.NormEnergy[i]), stats.Pct(1-f.NormEnergy[i]))
	}
	t.write(w)
	fmt.Fprintf(w, "average energy saving: %s (max %s)\n",
		stats.Pct(f.AvgSavings()), stats.Pct(1-stats.Min(f.NormEnergy)))
}

// ---------------------------------------------------------------------------
// Figure 9 — value-predictor sensitivity.

// Fig9 compares H3VP and EVES under SCC.
type Fig9 struct {
	Names      []string
	Predictors []string
	NormTime   [][]float64 // [predictor][workload], vs shared baseline
	Reduction  [][]float64
	Squashes   [][]float64 // invariant violations per 1000 committed uops
	Sweep
}

// Fig9 regenerates Figure 9.
func (s *Session) Fig9(opts Options) (*Fig9, error) {
	preds := []string{"h3vp", "eves"}
	cfgs := []pipeline.Config{pipeline.Icelake()}
	for _, vp := range preds {
		cfgs = append(cfgs, pipeline.IcelakeSCC(scc.LevelFull).WithValuePredictor(vp))
	}
	g, sw, err := s.grid(opts, cfgs...)
	if err != nil {
		return nil, err
	}
	return &Fig9{
		Names:      opts.names(),
		Predictors: preds,
		NormTime:   ratios(g[1:], g[0], cycles),
		Reduction:  each(g[1:], uopReduction),
		Squashes: each(g[1:], func(r *RunResult) float64 {
			return stats.Ratio(float64(r.Stats.InvariantViolations)*1000, float64(r.Stats.CommittedUops))
		}),
		Sweep: sw,
	}, nil
}

// Write prints the three panels.
func (f *Fig9) Write(w io.Writer) {
	section(w, "Figure 9: Value-predictor sensitivity (H3VP vs EVES)")
	t := newTable("benchmark", "time:h3vp", "time:eves", "red:h3vp", "red:eves", "squash/kuop:h3vp", "squash/kuop:eves")
	for i, name := range f.Names {
		t.rowf(name, "%.3f",
			f.NormTime[0][i], f.NormTime[1][i],
			f.Reduction[0][i], f.Reduction[1][i],
			f.Squashes[0][i], f.Squashes[1][i])
	}
	t.write(w)
}

// ---------------------------------------------------------------------------
// Figure 10 — micro-op cache partition sizes.

// Fig10 sweeps optimized-partition allocations out of 48 sets.
type Fig10 struct {
	Names    []string
	OptSets  []int
	NormTime [][]float64 // [split][workload]
	Sweep
}

// Fig10 regenerates Figure 10 (12-, 24- and 36-set optimized splits).
func (s *Session) Fig10(opts Options) (*Fig10, error) {
	splits := []int{12, 24, 36}
	cfgs := []pipeline.Config{pipeline.Icelake()}
	for _, optSets := range splits {
		cfgs = append(cfgs, pipeline.IcelakeSCC(scc.LevelFull).WithPartitionSplit(optSets))
	}
	g, sw, err := s.grid(opts, cfgs...)
	if err != nil {
		return nil, err
	}
	return &Fig10{Names: opts.names(), OptSets: splits, NormTime: ratios(g[1:], g[0], cycles), Sweep: sw}, nil
}

// BestSplit returns the opt-set count with the lowest mean normalized time.
func (f *Fig10) BestSplit() int {
	best, bestT := 0, 1e18
	for si, s := range f.OptSets {
		if t := stats.Mean(f.NormTime[si]); t < bestT {
			bestT = t
			best = s
		}
	}
	return best
}

// Write prints the split table.
func (f *Fig10) Write(w io.Writer) {
	section(w, "Figure 10: Optimized-partition size sensitivity (normalized time)")
	hdr := []string{"benchmark"}
	for _, s := range f.OptSets {
		hdr = append(hdr, fmt.Sprintf("opt=%d/unopt=%d", s, 48-s))
	}
	t := newTable(hdr...)
	for wi, name := range f.Names {
		var vals []float64
		for si := range f.OptSets {
			vals = append(vals, f.NormTime[si][wi])
		}
		t.rowf(name, "%.3f", vals...)
	}
	t.write(w)
	fmt.Fprintf(w, "best split: %d optimized / %d unoptimized sets\n", f.BestSplit(), 48-f.BestSplit())
}

// ---------------------------------------------------------------------------
// Figure 11 — constant-width restriction.

// Fig11 sweeps the inlined-constant width.
type Fig11 struct {
	Names     []string
	Widths    []int
	Reduction [][]float64 // [width][workload]
	NormTime  [][]float64
	// Live-out census at full width: fraction of streams carrying 1, 2,
	// or more live-outs (§VII-C's 0.62%/0.11% analysis analogue).
	With1, With2, WithMore float64
	Sweep
}

// Fig11 regenerates Figure 11 (64/32/16/8-bit widths).
func (s *Session) Fig11(opts Options) (*Fig11, error) {
	widths := []int{64, 32, 16, 8}
	cfgs := []pipeline.Config{pipeline.Icelake()}
	for _, width := range widths {
		cfgs = append(cfgs, pipeline.IcelakeSCC(scc.LevelFull).WithConstWidth(width))
	}
	g, sw, err := s.grid(opts, cfgs...)
	if err != nil {
		return nil, err
	}
	f := &Fig11{
		Names:     opts.names(),
		Widths:    widths,
		Reduction: each(g[1:], uopReduction),
		NormTime:  ratios(g[1:], g[0], cycles),
		Sweep:     sw,
	}
	var streams, w1, w2, wm float64
	for _, r := range g[1] { // full width
		streams += float64(r.Stats.OptStreams)
		w1 += float64(r.Stats.StreamsWith1LiveOut)
		w2 += float64(r.Stats.StreamsWith2LiveOut)
		wm += float64(r.Stats.StreamsWithMoreLO)
	}
	f.With1 = stats.Ratio(w1, streams)
	f.With2 = stats.Ratio(w2, streams)
	f.WithMore = stats.Ratio(wm, streams)
	return f, nil
}

// Write prints the width sweep.
func (f *Fig11) Write(w io.Writer) {
	section(w, "Figure 11: Constant-width sensitivity")
	hdr := []string{"benchmark"}
	for _, width := range f.Widths {
		hdr = append(hdr, fmt.Sprintf("red:%db", width))
	}
	for _, width := range f.Widths {
		hdr = append(hdr, fmt.Sprintf("time:%db", width))
	}
	t := newTable(hdr...)
	for wi, name := range f.Names {
		var vals []float64
		for widx := range f.Widths {
			vals = append(vals, f.Reduction[widx][wi])
		}
		for widx := range f.Widths {
			vals = append(vals, f.NormTime[widx][wi])
		}
		t.rowf(name, "%.3f", vals...)
	}
	t.write(w)
	fmt.Fprintf(w, "live-out census (per validated stream): 1 live-out %s, 2 live-outs %s, >2 %s\n",
		stats.Pct(f.With1), stats.Pct(f.With2), stats.Pct(f.WithMore))
}

// ---------------------------------------------------------------------------
// §VII-B — overhead numbers.

// WriteOverhead prints the area and peak-power overhead model (§VII-B:
// the paper reports 1.5 % area and 0.62 % peak power).
func WriteOverhead(w io.Writer) {
	a := power.DefaultAreaParams()
	section(w, "SCC hardware overheads (area & peak power model)")
	t := newTable("Quantity", "Value")
	t.row("Core area (baseline)", fmt.Sprintf("%.2f mm^2", a.CoreArea()))
	t.row("SCC additions", fmt.Sprintf("%.3f mm^2", a.SCCArea()))
	t.row("Area overhead", stats.Pct(a.SCCAreaOverhead()))
	t.row("Peak power overhead", stats.Pct(power.SCCPeakPowerOverhead(power.DefaultParams())))
	t.write(w)
}

// ---------------------------------------------------------------------------
// Future-work extension — FP/complex-integer compaction (§III invites it).

// Ext compares the paper configuration against the future-work extension
// (EnableFPFold + EnableComplexFold) on every workload.
type Ext struct {
	Names     []string
	PaperRed  []float64 // dynamic uop reduction, paper config
	ExtRed    []float64 // with the extension
	PaperTime []float64 // normalized time vs baseline
	ExtTime   []float64
	Sweep
}

// Ext regenerates the extension comparison.
func (s *Session) Ext(opts Options) (*Ext, error) {
	extCfg := pipeline.IcelakeSCC(scc.LevelFull)
	extCfg.SCC.EnableFPFold = true
	extCfg.SCC.EnableComplexFold = true
	g, sw, err := s.grid(opts, pipeline.Icelake(), pipeline.IcelakeSCC(scc.LevelFull), extCfg)
	if err != nil {
		return nil, err
	}
	red, norm := each(g[1:], uopReduction), ratios(g[1:], g[0], cycles)
	return &Ext{
		Names:     opts.names(),
		PaperRed:  red[0],
		ExtRed:    red[1],
		PaperTime: norm[0],
		ExtTime:   norm[1],
		Sweep:     sw,
	}, nil
}

// Write prints the extension comparison.
func (f *Ext) Write(w io.Writer) {
	section(w, "Extension: FP + complex-integer compaction (paper future work)")
	t := newTable("benchmark", "red:paper", "red:ext", "time:paper", "time:ext")
	for i, name := range f.Names {
		t.rowf(name, "%.3f", f.PaperRed[i], f.ExtRed[i], f.PaperTime[i], f.ExtTime[i])
	}
	t.write(w)
	fmt.Fprintf(w, "mean reduction: paper %s -> extension %s\n",
		stats.Pct(stats.Mean(f.PaperRed)), stats.Pct(stats.Mean(f.ExtRed)))
}

// ---------------------------------------------------------------------------
// Reading a grid.

func (o Options) names() []string {
	var out []string
	for _, w := range o.workloads() {
		out = append(out, w.Name)
	}
	return out
}

// each applies metric to every run of a grid's rows: [row][workload].
func each(rows [][]*RunResult, metric func(*RunResult) float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, row := range rows {
		out[i] = make([]float64, len(row))
		for wi, r := range row {
			out[i][wi] = metric(r)
		}
	}
	return out
}

// ratios divides metric of every run of a grid's rows by metric of the
// same workload's run in base: [row][workload].
func ratios(rows [][]*RunResult, base []*RunResult, metric func(*RunResult) float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, row := range rows {
		out[i] = make([]float64, len(row))
		for wi, r := range row {
			out[i][wi] = stats.Ratio(metric(r), metric(base[wi]))
		}
	}
	return out
}

func committedUops(r *RunResult) float64 { return float64(r.Stats.CommittedUops) }
func cycles(r *RunResult) float64        { return float64(r.Stats.Cycles) }
func uopReduction(r *RunResult) float64  { return r.Stats.DynamicUopReduction() }
