package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sccsim"
	"sccsim/internal/harness"
	"sccsim/internal/pipeline"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestTopGolden pins the -top dump byte for byte: sccsim
// -enable-superoptimization -workload W -max-uops 50000 -top 5 prints
// the report and then exactly these bytes. xalancbmk's lines carry data
// and control invariants, per-line squashes, live-outs and non-zero
// hotness; gcc's five of 15 are invariant-free lines whose moves and
// folds left live-outs. Regenerate with
//
//	go test ./cmd/sccsim -run TopGolden -update
func TestTopGolden(t *testing.T) {
	for _, name := range []string{"xalancbmk", "gcc"} {
		t.Run(name, func(t *testing.T) {
			w, ok := sccsim.WorkloadByName(name)
			if !ok {
				t.Fatalf("unknown workload %q", name)
			}
			var m *pipeline.Machine
			res, err := harness.RunOne(sccsim.SCCConfig(sccsim.LevelFull), w, harness.Options{
				MaxUops: 50_000,
				Observe: func(pm *pipeline.Machine) { m = pm },
			})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			writeTop(&buf, res, m.UC.Opt, 5)
			golden := filepath.Join("testdata", "top_"+name+".golden.txt")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("-top dump diverged from golden %s (regenerate with -update if intended)\n--- got ---\n%s",
					golden, buf.Bytes())
			}
		})
	}
}
