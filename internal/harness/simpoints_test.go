package harness

import (
	"reflect"
	"testing"

	"sccsim/internal/pipeline"
	"sccsim/internal/simpoint"
	"sccsim/internal/workloads"
)

func TestProfileBBVCoversExecution(t *testing.T) {
	w, _ := workloads.ByName("xalancbmk")
	ivs := ProfileBBV(w, 10_000, 50_000)
	if len(ivs) != 5 {
		t.Fatalf("intervals = %d, want 5", len(ivs))
	}
	for i, iv := range ivs {
		if iv.Uops != 10_000 {
			t.Errorf("interval %d has %d uops", i, iv.Uops)
		}
		if len(iv.Vec) == 0 {
			t.Errorf("interval %d has an empty BBV", i)
		}
		// Every fingerprinted block must be a real static block head.
		heads := map[uint64]bool{}
		for _, h := range blockHeads(w) {
			heads[h] = true
		}
		for pc := range iv.Vec {
			if !heads[pc] {
				t.Errorf("interval %d fingerprints non-leader pc %#x", i, pc)
			}
		}
	}
}

func TestSimPointEstimateApproximatesFullRun(t *testing.T) {
	// A steady-state kernel: any representative interval should predict
	// whole-run IPC closely.
	w, _ := workloads.ByName("xalancbmk")
	res, err := SimPointEstimate(pipeline.Icelake(), w, 20_000, 3, Options{MaxUops: 120_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no simpoints selected")
	}
	rel := res.WeightedIPC/res.FullIPC - 1
	if rel < -0.15 || rel > 0.15 {
		t.Errorf("weighted IPC %.3f vs full %.3f (%.1f%% error)",
			res.WeightedIPC, res.FullIPC, rel*100)
	}
	wsum := 0.0
	for _, p := range res.Points {
		wsum += p.Weight
	}
	if wsum < 0.999 || wsum > 1.001 {
		t.Errorf("weights sum to %v", wsum)
	}
}

func TestSimPointEstimateUnderSCC(t *testing.T) {
	w, _ := workloads.ByName("freqmine")
	res, err := SimPointEstimate(pipeline.IcelakeSCC(5), w, 20_000, 4, Options{MaxUops: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.FullIPC <= 0 || res.WeightedIPC <= 0 {
		t.Fatalf("degenerate IPCs: %+v", res)
	}
	rel := res.WeightedIPC/res.FullIPC - 1
	if rel < -0.30 || rel > 0.30 {
		t.Errorf("SCC weighted IPC %.3f vs full %.3f", res.WeightedIPC, res.FullIPC)
	}
}

// TestSelectIsDeterministic pins simpoint.Select to one answer per
// profile: these profiles hold near-ties that a distance summed in Go's
// random map order broke differently from call to call.
func TestSelectIsDeterministic(t *testing.T) {
	cases := []struct {
		workload       string
		budget, ivUops uint64
	}{
		{"perlbench", 40_000, 5_000},
		{"perlbench", 30_000, 3_750},
		{"gcc", 30_000, 3_750},
	}
	for _, tc := range cases {
		w, _ := workloads.ByName(tc.workload)
		ivs := ProfileBBV(w, tc.ivUops, tc.budget)
		want := simpoint.Select(ivs, simPointK)
		for i := 0; i < 50; i++ {
			if got := simpoint.Select(ivs, simPointK); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (%d-uop budget, %d-uop intervals): call %d selected %v, first call %v",
					tc.workload, tc.budget, tc.ivUops, i, got, want)
			}
		}
	}
}
