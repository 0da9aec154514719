package main

import (
	"fmt"
	"io"
	"sort"

	"sccsim/internal/harness"
	"sccsim/internal/uopcache"
)

// writeTop writes the -top dump of a finished SCC run: the run line, the
// SCC unit summary, then the n most-streamed compacted lines resident in
// the optimized partition opt — each with its transformed micro-ops, the
// invariants it speculated on and their confidence counters, its
// live-outs, and its streaming, squash and hotness history.
func writeTop(w io.Writer, res *harness.RunResult, opt *uopcache.Partition, n int) {
	st, u := res.Stats, res.Unit
	fmt.Fprintf(w, "workload %s: %d cycles, %d committed uops, %d eliminated (%.1f%%)\n",
		res.Workload, st.Cycles, st.CommittedUops, st.EliminatedUops(),
		st.DynamicUopReduction()*100)
	fmt.Fprintf(w, "unit: %d requests (%d rejected), %d jobs -> %d committed, %d discarded, %d aborted\n",
		u.Requests, u.Rejected, u.Jobs, u.Committed, u.Discarded, u.Aborted)
	fmt.Fprintf(w, "      %d moves, %d folds, %d branches eliminated; %d operands propagated\n",
		u.ElimMove, u.ElimFold, u.ElimBranch, u.Propagated)
	fmt.Fprintf(w, "      %d data + %d control invariants identified; busy %d cycles\n",
		u.DataInvariants, u.CtrlInvariants, u.BusyCycles)
	fmt.Fprintf(w, "streaming: %d validated streams, %d violations, %d uops squashed\n\n",
		st.OptStreams, st.InvariantViolations, st.SquashedUops)

	var lines []*uopcache.Line
	if opt != nil { // -specCacheNumSets 0 leaves no optimized partition
		lines = opt.Lines()
	}
	sort.Slice(lines, func(i, j int) bool {
		return lines[i].Meta.Streams > lines[j].Meta.Streams
	})
	if len(lines) > n {
		fmt.Fprintf(w, "showing the %d most-streamed of %d resident compacted lines\n\n", n, len(lines))
		lines = lines[:n]
	}
	for _, l := range lines {
		writeLine(w, l, opt.Hot(l))
	}
}

func writeLine(w io.Writer, l *uopcache.Line, hot int) {
	m := l.Meta
	fmt.Fprintf(w, "line @ %#x: %d slots (from %d; shrinkage %d), streamed %d times, %d squashes, hot %d\n",
		l.EntryPC, l.Slots, m.OrigSlots, m.Shrinkage(l.Slots), m.Streams, m.Squashes, hot)
	fmt.Fprintf(w, "  eliminated here: %d moves, %d folds, %d branches; %d propagated; resumes at %#x\n",
		m.ElimMove, m.ElimFold, m.ElimBranch, m.Propagated, m.EndPC)
	for i := range l.Uops {
		fmt.Fprintf(w, "  %2d: %v\n", i, &l.Uops[i])
	}
	for _, d := range m.DataInv {
		fmt.Fprintf(w, "  data invariant  pc=%#x value=%-12d conf=%d/15\n", d.PC, d.Value, d.Conf)
	}
	for _, ci := range m.CtrlInv {
		fmt.Fprintf(w, "  ctrl invariant  pc=%#x taken=%-5v target=%#x conf=%d/15\n",
			ci.PC, ci.Taken, ci.Target, ci.Conf)
	}
	if len(m.LiveOuts) > 0 {
		fmt.Fprintf(w, "  live-outs:")
		for _, lo := range m.LiveOuts {
			fmt.Fprintf(w, " %s=%d", lo.Reg, lo.Value)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}
