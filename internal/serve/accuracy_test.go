package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"selnet/internal/obs"
	"selnet/internal/tensor"
)

// regionEstimator is a fake estimator that also implements
// estimator.PartitionLocator: region = 0 for x[0] < 0, 1 otherwise.
type regionEstimator struct{ v float64 }

func (e regionEstimator) Estimate(x []float64, t float64) float64 { return e.v }
func (e regionEstimator) EstimateBatch(x *tensor.Dense, ts []float64) []float64 {
	out := make([]float64, len(ts))
	for i := range out {
		out[i] = e.v
	}
	return out
}
func (e regionEstimator) Dim() int      { return 2 }
func (e regionEstimator) TMax() float64 { return 1 }
func (e regionEstimator) Name() string  { return "fake" }
func (e regionEstimator) PartitionOf(x []float64, t float64) int {
	if x[0] < 0 {
		return 0
	}
	return 1
}

// fixedOracle answers every ground-truth query with a constant.
type fixedOracle struct{ v float64 }

func (o fixedOracle) TrueSelectivity([]float64, float64) (float64, string) { return o.v, "exact" }

// newShadowServer builds a server with an always-sampling shadow scorer
// attached before the handler is constructed (the /debug/accuracy route
// is registered only when a shadow is present).
func newShadowServer(t *testing.T) (*Server, *obs.Shadow, *httptest.Server) {
	t.Helper()
	s := NewServer(Config{})
	wl := obs.NewWorkloadMonitor(obs.WorkloadConfig{Threshold: 0.9, MinSamples: 1})
	wl.SetBaseline("default", [][]float64{{0, 0}, {1, 1}, {-1, -1}}, []float64{0.1, 0.2, 0.3})
	sh := obs.NewShadow(obs.ShadowConfig{SampleRate: 1, QueueDepth: 1024, Workload: wl})
	sh.SetOracle("default", fixedOracle{v: 50})
	s.SetShadow(sh)
	s.SetTracer(obs.NewTracer(obs.TracerConfig{SlowThreshold: time.Nanosecond}))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		sh.Close()
		s.Close()
	})
	if _, err := s.Registry().Publish("default", regionEstimator{v: 100}, "test"); err != nil {
		t.Fatal(err)
	}
	return s, sh, ts
}

func waitForSamples(t *testing.T, url string, want uint64) accuracyResponse {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var acc accuracyResponse
	for time.Now().Before(deadline) {
		getJSON(t, url+"/debug/accuracy", &acc)
		if st, ok := acc.Models["default"]; ok && st.Samples >= want {
			return acc
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("shadow never scored %d samples: %+v", want, acc)
	return acc
}

func TestAccuracyEndpoint(t *testing.T) {
	_, sh, ts := newShadowServer(t)

	// Drive estimates on both sides of the region split and across
	// threshold bands; every one is sampled (rate 1).
	for i := 0; i < 16; i++ {
		x0 := 1.0
		if i%2 == 0 {
			x0 = -1.0
		}
		tq := 0.05 + float64(i%4)*0.3
		resp, body := postJSON(t, ts.URL+"/v1/estimate",
			estimateRequest{Model: "default", Query: []float64{x0, 0.5}, T: tq})
		if resp.StatusCode != 200 {
			t.Fatalf("estimate %d: %d %s", i, resp.StatusCode, body)
		}
		if resp.Header.Get("X-Trace-Id") == "" {
			t.Fatal("shadow-enabled server must mint trace IDs")
		}
	}

	acc := waitForSamples(t, ts.URL, 16)
	if acc.Sampler.Sampled < 16 {
		t.Fatalf("sampler.sampled = %d, want >= 16", acc.Sampler.Sampled)
	}
	if acc.Sampler.Oracles["exact"] < 16 {
		t.Fatalf("oracle methods = %v", acc.Sampler.Oracles)
	}
	st := acc.Models["default"]
	if st.P50 != 2 || st.Max != 2 { // estimate 100 vs truth 50
		t.Fatalf("q-error quantiles = %+v, want 2 across the board", st)
	}
	if len(st.Buckets) < 2 {
		t.Fatalf("threshold-bucket breakdown = %v, want multiple bands", st.Buckets)
	}
	// Both regions of the fake locator must appear.
	if len(st.Partitions) != 2 || st.Partitions["0"].Count == 0 || st.Partitions["1"].Count == 0 {
		t.Fatalf("partition breakdown = %v, want regions 0 and 1", st.Partitions)
	}
	if len(st.Worst) == 0 {
		t.Fatal("worst-N list empty")
	}
	for _, w := range st.Worst {
		if len(w.TraceID) != 16 || w.TraceID == strings.Repeat("0", 16) {
			t.Fatalf("worst entry lacks a real trace ID: %+v", w)
		}
	}
	// Workload detector saw the same stream.
	if acc.Workload["default"].LiveSamples < 16 {
		t.Fatalf("workload stats = %+v", acc.Workload)
	}

	// /stats mirrors the summary sections.
	var stats statsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Shadow == nil || stats.Shadow.Sampled < 16 {
		t.Fatalf("/stats shadow section = %+v", stats.Shadow)
	}
	if stats.Workload["default"].LiveSamples < 16 {
		t.Fatalf("/stats workload section = %+v", stats.Workload)
	}

	// /metrics exposes the new families.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, fam := range []string{
		"selestd_shadow_qerror{",
		"selestd_shadow_partition_qerror{",
		"selestd_shadow_samples_total{",
		"selestd_shadow_sampled_total",
		"selestd_shadow_dropped_total",
		"selestd_workload_divergence{",
		"selestd_workload_shift_exceeded_total{",
	} {
		if !strings.Contains(text, fam) {
			t.Fatalf("/metrics missing %s", fam)
		}
	}
	_ = sh
}

func TestAccuracyEndpointLimitAndContentType(t *testing.T) {
	_, _, ts := newShadowServer(t)
	for i := 0; i < 8; i++ {
		postJSON(t, ts.URL+"/v1/estimate",
			estimateRequest{Model: "default", Query: []float64{1, float64(i)}, T: 0.2})
	}
	waitForSamples(t, ts.URL, 8)

	var acc accuracyResponse
	resp := getJSON(t, ts.URL+"/debug/accuracy?limit=1", &acc)
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("accuracy Content-Type = %q", ct)
	}
	if got := len(acc.Models["default"].Worst); got != 1 {
		t.Fatalf("limit=1 worst len = %d", got)
	}

	for _, bad := range []string{"x", "0", "-3"} {
		r, err := http.Get(ts.URL + "/debug/accuracy?limit=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("limit=%q status = %d, want 400", bad, r.StatusCode)
		}
	}
}

func TestTracesLimitAndContentType(t *testing.T) {
	_, _, ts := newShadowServer(t)
	for i := 0; i < 10; i++ {
		postJSON(t, ts.URL+"/v1/estimate",
			estimateRequest{Model: "default", Query: []float64{1, 1}, T: 0.2})
	}
	var tr tracesResponse
	resp := getJSON(t, ts.URL+"/debug/traces?limit=3", &tr)
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("traces Content-Type = %q", ct)
	}
	if len(tr.Recent) > 3 || len(tr.Slow) > 3 {
		t.Fatalf("limit=3 returned %d recent / %d slow", len(tr.Recent), len(tr.Slow))
	}
	r, err := http.Get(ts.URL + "/debug/traces?limit=bogus")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit status = %d, want 400", r.StatusCode)
	}
}

func TestAccuracyBatchSampling(t *testing.T) {
	// Batch estimates are salted per query: with rate 1 every query in
	// the batch is scored independently.
	_, _, ts := newShadowServer(t)
	queries := make([][]float64, 12)
	tqs := make([]float64, 12)
	for i := range queries {
		queries[i] = []float64{float64(i%3) - 1, 0.5}
		tqs[i] = 0.2
	}
	resp, body := postJSON(t, ts.URL+"/v1/estimate/batch",
		estimateBatchRequest{Model: "default", Queries: queries, Ts: tqs})
	if resp.StatusCode != 200 {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	acc := waitForSamples(t, ts.URL, 12)
	if got := acc.Models["default"].Samples; got != 12 {
		t.Fatalf("batch scored %d samples, want 12", got)
	}
}

func TestAccuracyRouteAbsentWithoutShadow(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	r, err := http.Get(ts.URL + "/debug/accuracy")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("accuracy without shadow = %d, want 404", r.StatusCode)
	}
}
