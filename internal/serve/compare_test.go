package serve

// GET /v1/compare coverage: both sides resolve through the
// content-addressed result cache, the Explanation JSON is byte-stable
// across repeated requests and identical to what the harness-level
// entry point produces from the same cached manifests, and the error
// contract (400 malformed, 404 unknown side, 409 incomparable
// workloads) holds.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sccsim/internal/explain"
	"sccsim/internal/harness"
)

func TestCompareEndpoint(t *testing.T) {
	cacheDir := t.TempDir()
	srv := New(Config{Workers: 2, QueueDepth: 8, CacheDir: cacheDir})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Warm the cache with three runs: an SCC/baseline pair of the same
	// workload (comparable) and one other workload (incomparable).
	submit := func(body string) *JobStatus {
		t.Helper()
		st, code := postJob(t, ts, body)
		if code != http.StatusOK {
			t.Fatalf("submit %s = %d", body, code)
		}
		return st
	}
	sccJob := submit(`{"workload":"xalancbmk","preset":"scc","max_uops":20000,"sample_every":5000,"wait":true}`)
	baseJob := submit(`{"workload":"xalancbmk","preset":"baseline","max_uops":20000,"sample_every":5000,"wait":true}`)
	otherJob := submit(`{"workload":"mcf","preset":"scc","max_uops":20000,"wait":true}`)

	compare := func(base, cur string) (int, []byte) {
		t.Helper()
		return get(t, ts.URL+"/v1/compare?base="+base+"&cur="+cur)
	}

	code, body := compare(sccJob.ConfigHash, baseJob.ConfigHash)
	if code != http.StatusOK {
		t.Fatalf("compare = %d (%s), want 200", code, body)
	}
	var ex explain.Explanation
	if err := json.Unmarshal(body, &ex); err != nil {
		t.Fatalf("decode explanation: %v", err)
	}
	if ex.Workload != "xalancbmk" || ex.BaseHash != sccJob.ConfigHash || ex.CurHash != baseJob.ConfigHash {
		t.Fatalf("explanation identity wrong: %s/%s/%s", ex.Workload, ex.BaseHash, ex.CurHash)
	}
	if ex.CPIStack == nil || len(ex.CPIStack.Slots) != 9 || ex.CPIStack.Dominant == "" {
		t.Fatalf("explanation carries no nine-slot CPI stack delta with a dominant slot: %+v", ex.CPIStack)
	}

	// The same pair must return byte-identical JSON on a repeat — the
	// explanation is a pure function of the two cached manifests.
	if code, body2 := compare(sccJob.ConfigHash, baseJob.ConfigHash); code != http.StatusOK || !bytes.Equal(body, body2) {
		t.Fatalf("repeated compare not byte-identical (code %d)", code)
	}

	// ...and identical to explain.Explain fed the same cache entries.
	bm := harness.LookupHash(cacheDir, sccJob.ConfigHash)
	cm := harness.LookupHash(cacheDir, baseJob.ConfigHash)
	if bm == nil || cm == nil {
		t.Fatal("cache lookup missed a warm entry")
	}
	want, err := explain.Explain(bm, cm)
	if err != nil {
		t.Fatal(err)
	}
	var wantBuf bytes.Buffer
	if err := want.Encode(&wantBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, wantBuf.Bytes()) {
		t.Fatalf("served explanation differs from explain.Explain:\n--- served\n%s\n--- local\n%s",
			body, wantBuf.Bytes())
	}

	// Error contract.
	if code, body := compare(strings.Repeat("0", 64), baseJob.ConfigHash); code != http.StatusNotFound ||
		!strings.Contains(string(body), "base") {
		t.Fatalf("unknown base = %d (%s), want 404 naming the side", code, body)
	}
	if code, body := compare(sccJob.ConfigHash, strings.Repeat("0", 64)); code != http.StatusNotFound ||
		!strings.Contains(string(body), "cur") {
		t.Fatalf("unknown cur = %d (%s), want 404 naming the side", code, body)
	}
	if code, _ := compare(sccJob.ConfigHash, otherJob.ConfigHash); code != http.StatusConflict {
		t.Fatalf("cross-workload compare = %d, want 409", code)
	}
	if code, _ := compare("abc", "def"); code != http.StatusBadRequest {
		t.Fatalf("short hashes = %d, want 400", code)
	}

	if got := srv.met.compares.Value(); got != 6 {
		t.Errorf("sccserve_compare_total = %d, want 6", got)
	}
}
