// Command sccdiff compares two sweep result indexes and fails on metric
// regressions. It is the repo's CI gate: `make diff` runs it with the
// committed BENCH baseline against freshly produced manifests.
//
//	sccdiff BENCH_pr2.json manifests/
//	sccdiff -v -ipc-drop 0.02 old/index.json new/index.json
//	sccdiff -explain -format markdown base-manifests new-manifests
//
// Each argument is an index JSON file (BENCH_*.json, index.json) or a
// manifest directory containing index.json. Entries are matched by
// (experiment, workload, max_uops, ordinal); per-metric thresholds are
// direction-aware (IPC and uop-reduction must not fall, energy must not
// rise).
//
// -explain opens the per-run manifests behind every regressed entry and
// appends a regression-attribution report (CPI-stack delta
// decomposition, per-transform opt-report diff, interval-divergence
// localization); -explain-all explains every matched entry. -strict
// additionally turns baseline-coverage loss (entries present only in
// the base index) into a failure.
//
// Exit status: 0 no regressions, 1 regressions found (or, with -strict,
// baseline coverage lost), 2 usage or I/O error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"sccsim/internal/explain"
	"sccsim/internal/obs"
	"sccsim/internal/telemetry"
)

// entryExplanation is one key's attribution in the -format json output:
// either the explanation, or why it could not be produced (missing or
// stale manifests never mask the gate result).
type entryExplanation struct {
	Key         string               `json:"key"`
	Error       string               `json:"error,omitempty"`
	Explanation *explain.Explanation `json:"explanation,omitempty"`
}

func main() {
	def := obs.DefaultThresholds()
	var (
		ipcDrop = flag.Float64("ipc-drop", def.IPCDrop,
			"max tolerated relative IPC decrease (0.05 = -5%)")
		elimDrop = flag.Float64("elim-drop", def.ElimDrop,
			"max tolerated absolute dynamic_uop_reduction decrease")
		energyRise = flag.Float64("energy-rise", def.EnergyRise,
			"max tolerated relative energy_j increase")
		format     = flag.String("format", "text", "output format: text | markdown | json")
		verbose    = flag.Bool("v", false, "print all matched entries, not just regressions")
		explainReg = flag.Bool("explain", false, "attribute every regressed entry via the manifests behind it (CPI stack, transforms, interval divergence)")
		explainAll = flag.Bool("explain-all", false, "like -explain, but for every matched entry")
		strict     = flag.Bool("strict", false, "exit 1 when base entries are missing from new (baseline-coverage loss)")
		version    = flag.Bool("version", false, "print the simulator version and exit")

		logLevel  = flag.String("log-level", "warn", "structured log threshold on stderr: "+telemetry.LogLevels)
		logFormat = flag.String("log-format", "text", "structured log encoding: "+telemetry.LogFormats)
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sccdiff [flags] <base-index> <new-index>\n")
		fmt.Fprintf(os.Stderr, "  each argument is an index JSON file or a manifest directory\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("sccdiff"))
		os.Exit(0)
	}
	if *format != "text" && *format != "markdown" && *format != "json" {
		fmt.Fprintf(os.Stderr, "sccdiff: unknown -format %q (text | markdown | json)\n", *format)
		os.Exit(2)
	}
	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sccdiff: %v\n", err)
		os.Exit(2)
	}
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}

	base, err := obs.LoadIndex(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "sccdiff: base: %v\n", err)
		os.Exit(2)
	}
	cur, err := obs.LoadIndex(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "sccdiff: new: %v\n", err)
		os.Exit(2)
	}
	logger.Debug("indexes loaded",
		"base", flag.Arg(0), "base_entries", len(base.Entries),
		"new", flag.Arg(1), "new_entries", len(cur.Entries))

	rep := obs.DiffIndexes(base, cur, obs.DiffThresholds{
		IPCDrop:    *ipcDrop,
		ElimDrop:   *elimDrop,
		EnergyRise: *energyRise,
	})

	var explanations []entryExplanation
	if *explainReg || *explainAll {
		explanations = explainEntries(rep, base, cur, flag.Arg(0), flag.Arg(1), *explainAll)
	}

	switch *format {
	case "markdown":
		rep.WriteMarkdown(os.Stdout)
		for _, ee := range explanations {
			fmt.Println()
			if ee.Error != "" {
				fmt.Printf("### explanation: `%s`\n\n_unavailable: %s_\n", ee.Key, ee.Error)
				continue
			}
			ee.Explanation.WriteMarkdown(os.Stdout)
		}
	case "json":
		out := struct {
			Report       *obs.DiffReport    `json:"report"`
			Explanations []entryExplanation `json:"explanations,omitempty"`
		}{rep, explanations}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	default:
		rep.Write(os.Stdout, *verbose)
		for _, ee := range explanations {
			fmt.Println()
			if ee.Error != "" {
				fmt.Printf("explanation for %s unavailable: %s\n", ee.Key, ee.Error)
				continue
			}
			ee.Explanation.WriteText(os.Stdout)
		}
	}

	fail := rep.Regressions > 0
	if *strict && len(rep.OnlyBase) > 0 {
		fmt.Fprintf(os.Stderr, "sccdiff: strict: %d base entr%s missing from new (baseline coverage lost)\n",
			len(rep.OnlyBase), plural(len(rep.OnlyBase), "y", "ies"))
		fail = true
	}
	if fail {
		if rep.Regressions > 0 {
			logger.Warn("metric regressions found", "regressions", rep.Regressions)
		}
		os.Exit(1)
	}
}

// explainEntries attributes the regressed (or, with all, every matched)
// entries by loading the manifests behind both sides of each key.
// Failures to load or explain degrade to per-entry errors: index-only
// baselines (BENCH_pr*.json snapshots without manifest files) still
// diff, they just cannot be explained.
func explainEntries(rep *obs.DiffReport, base, cur *obs.Index, basePath, curPath string, all bool) []entryExplanation {
	bk, ck := obs.KeyEntries(base), obs.KeyEntries(cur)
	var out []entryExplanation
	for _, e := range rep.Entries {
		if !e.Regressed && !all {
			continue
		}
		ee := entryExplanation{Key: e.Key}
		bm, err := explain.LoadEntryManifest(basePath, bk[e.Key])
		if err != nil {
			ee.Error = fmt.Sprintf("base: %v", err)
			out = append(out, ee)
			continue
		}
		cm, err := explain.LoadEntryManifest(curPath, ck[e.Key])
		if err != nil {
			ee.Error = fmt.Sprintf("new: %v", err)
			out = append(out, ee)
			continue
		}
		ex, err := explain.Explain(bm, cm)
		if err != nil {
			ee.Error = err.Error()
			out = append(out, ee)
			continue
		}
		ex.Key = e.Key
		ee.Explanation = ex
		out = append(out, ee)
	}
	return out
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
