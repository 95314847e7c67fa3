package serve

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"selnet/internal/distance"
	"selnet/internal/modeltest"
	"selnet/internal/tensor"
)

// routerRegistry publishes the named modeltest builders and returns the
// registry plus a router in the given mode.
func routerRegistry(t testing.TB, mode string, kinds ...string) (*Registry, *Router) {
	t.Helper()
	reg := NewRegistry(nil)
	builders := modeltest.Builders()
	for _, kind := range kinds {
		b, ok := builders[kind]
		if !ok {
			t.Fatalf("no builder for kind %q", kind)
		}
		if _, err := reg.Publish(kind, b(), "test"); err != nil {
			t.Fatalf("publish %s: %v", kind, err)
		}
	}
	return reg, NewRouter(reg, RouterConfig{Mode: mode})
}

func TestRouterAutoPrefersSamplingOnSmallData(t *testing.T) {
	// All dim-3 models; the sampling-backed ones hold far less data than
	// the VC bound m*(3) ≈ 1400, so auto serves from sampling directly.
	_, rt := routerRegistry(t, "auto", "kde", "lsh", "selnet")
	m, err := rt.Route("auto", 3)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	if m.Name != "kde" && m.Name != "lsh" {
		t.Fatalf("auto routed dim-3 to %q, want a sampling-class model", m.Name)
	}
	st := rt.Stats()
	if len(st.Assignments) != 1 || !strings.Contains(st.Assignments[0].Reason, "vc bound") {
		t.Fatalf("assignments = %+v", st.Assignments)
	}
}

func TestRouterAutoPrefersSelNetInHighDim(t *testing.T) {
	// A dim-16 SelNet and a dim-16 KDE: the KDE's sample count is within
	// the bound, but dim 16 > routeDimThreshold sends queries to SelNet.
	reg := NewRegistry(nil)
	mustPublish(t, reg, "wide-net", modeltest.TinySelNet(1, 16))
	db, queries := modeltest.Workload(0, 200, 16, 40)
	mustPublish(t, reg, "wide-kde", modeltest.FitKDE(db, queries))
	rt := NewRouter(reg, RouterConfig{Mode: "auto"})
	m, err := rt.Route("auto", 16)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	if m.Name != "wide-net" {
		t.Fatalf("auto routed dim-16 to %q, want wide-net", m.Name)
	}
}

func TestRouterAutoFallsBackToSelNetOverBound(t *testing.T) {
	// A KDE fitted on 1500 vectors, above m*, is disqualified as the
	// sampling class; SelNet takes over.
	reg := NewRegistry(nil)
	mustPublish(t, reg, "net", modeltest.TinySelNet(1, 3))
	db, queries := modeltest.Workload(distance.Euclidean, 1500, 3, 20)
	mustPublish(t, reg, "kde", modeltest.FitKDE(db, queries))
	rt := NewRouter(reg, RouterConfig{Mode: "auto"})
	// m*(3) = ceil((4+ln 20)/(2*0.05^2)) = 1400 < 1500 vectors.
	if b := rt.SampleBound(3); b != 1400 {
		t.Fatalf("bound = %d, want 1400", b)
	}
	m, err := rt.Route("auto", 3)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	if m.Name != "net" {
		t.Fatalf("routed to %q, want net", m.Name)
	}
}

func TestRouterExplicitKind(t *testing.T) {
	_, rt := routerRegistry(t, "gbm", "kde", "gbm", "selnet")
	m, err := rt.Route("default", 3)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	if m.Name != "gbm" {
		t.Fatalf("routed to %q, want gbm", m.Name)
	}
	// Pinned kind with no matching model is a routing error, not a
	// silent fallback.
	_, rt2 := routerRegistry(t, "umnn", "kde")
	if _, err := rt2.Route("default", 3); err == nil {
		t.Fatal("expected error for pinned kind with no model")
	}
}

func TestRouterEnsembleBlendsInLogSpace(t *testing.T) {
	_, rt := routerRegistry(t, "ensemble", "kde", "gbm")
	m, err := rt.Route("auto", 3)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	if m.Name != "ensemble" || m.Est.Name() != "Ensemble" {
		t.Fatalf("ensemble model = %q/%q", m.Name, m.Est.Name())
	}
	ens := m.Est.(*ensembleEstimator)
	x := []float64{0.1, -0.2, 0.3}
	const tq = 0.5
	want := 0.0
	for _, member := range ens.members {
		want += math.Log(math.Max(member.Estimate(x, tq), 0) + logBlendEps)
	}
	want = math.Exp(want/float64(len(ens.members))) - logBlendEps
	if got := m.Est.Estimate(x, tq); math.Abs(got-want) > 1e-12 {
		t.Fatalf("blend = %v, want %v", got, want)
	}
	// Batch path agrees with the scalar path.
	xs, ts := tensor.FromRows([][]float64{x}), []float64{tq}
	if got := m.Est.EstimateBatch(xs, ts)[0]; math.Abs(got-want) > 1e-12 {
		t.Fatalf("batch blend = %v, want %v", got, want)
	}
}

// TestRouterEnsembleMonotoneInT verifies the ensemble blend keeps the
// members' consistency: over a SelNet and a KDE of one dimension, both
// estimate paths are non-decreasing along every threshold ladder.
func TestRouterEnsembleMonotoneInT(t *testing.T) {
	_, rt := routerRegistry(t, "ensemble", "selnet", "kde")
	m, err := rt.Route("auto", 3)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	if n := len(m.Est.(*ensembleEstimator).members); n != 2 {
		t.Fatalf("ensemble has %d members, want 2", n)
	}
	x, ts := ladderProbes(3, m.Est.TMax())
	scalar := make([]float64, len(ts))
	for i := range ts {
		scalar[i] = m.Est.Estimate(x.Row(i), ts[i])
	}
	assertMonotoneInT(t, "Estimate", x, ts, scalar)
	assertMonotoneInT(t, "EstimateBatch", x, ts, m.Est.EstimateBatch(x, ts))
}

func TestRouterCacheInvalidatesOnPublish(t *testing.T) {
	reg, rt := routerRegistry(t, "auto", "kde")
	if m, _ := rt.Route("auto", 3); m.Name != "kde" {
		t.Fatalf("routed to %q, want kde", m.Name)
	}
	// Publishing a dim-16 model changes the table; the old cache must
	// not serve a stale "no dim-16 model" answer.
	mustPublish(t, reg, "wide", modeltest.TinySelNet(1, 16))
	m, err := rt.Route("auto", 16)
	if err != nil {
		t.Fatalf("route after publish: %v", err)
	}
	if m.Name != "wide" {
		t.Fatalf("routed to %q, want wide", m.Name)
	}
}

func TestRouterDecisionCounters(t *testing.T) {
	_, rt := routerRegistry(t, "auto", "kde")
	for i := 0; i < 3; i++ {
		rt.Route("auto", 3)
	}
	rt.Route("default", 3)
	st := rt.Stats()
	got := map[string]uint64{}
	for _, d := range st.Decisions {
		got[d.Model+"->"+d.Backend] = d.Count
	}
	if got["auto->kde"] != 3 || got["default->kde"] != 1 {
		t.Fatalf("decisions = %+v", st.Decisions)
	}
}

func TestRouterUnknownDim(t *testing.T) {
	_, rt := routerRegistry(t, "auto", "kde")
	if _, err := rt.Route("auto", 3); err != nil {
		t.Fatalf("route dim 3: %v", err)
	}
	if _, err := rt.Route("auto", 7); err == nil {
		t.Fatal("expected error for dim with no model")
	}
	// Both outcomes — the hit and the negative entry — are cached and
	// visible in /stats.
	st := rt.Stats()
	if len(st.Assignments) != 2 {
		t.Fatalf("assignments = %+v", st.Assignments)
	}
	if st.Assignments[1].Error == "" {
		t.Fatalf("dim-7 assignment should carry the error: %+v", st.Assignments[1])
	}
}

// TestRouterEnsembleServesEstimateE2E drives a single estimate through
// an ensemble route over HTTP: the virtual model the router builds must
// be servable like a published one, answering exactly its blend.
func TestRouterEnsembleServesEstimateE2E(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	mustPublish(t, s.Registry(), "kde", modeltest.Builders()["kde"]())
	mustPublish(t, s.Registry(), "gbm", modeltest.Builders()["gbm"]())
	s.SetRouter(NewRouter(s.Registry(), RouterConfig{Mode: "ensemble"}))

	query := []float64{0.1, -0.2, 0.3}
	const tq = 0.5
	m, err := s.router.Route("default", len(query))
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	want := m.Est.Estimate(query, tq)
	for i := 0; i < 3; i++ { // past the cache's second-miss admission
		resp, body := postJSON(t, ts.URL+"/v1/estimate", estimateRequest{Model: "default", Query: query, T: tq})
		if resp.StatusCode != 200 {
			t.Fatalf("estimate via ensemble: %d %s", resp.StatusCode, body)
		}
		var er estimateResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("decode: %v (%s)", err, body)
		}
		if er.Model != "ensemble" || math.Float64bits(er.Estimate) != math.Float64bits(want) {
			t.Fatalf("request %d: got %q %v, want ensemble %v", i, er.Model, er.Estimate, want)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/estimate", estimateRequest{Model: "default", Query: query[:2], T: tq})
	if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dim-2 query via ensemble: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/estimate/batch",
		estimateBatchRequest{Model: "default", Queries: [][]float64{query, query}, Ts: []float64{tq, tq}})
	if resp.StatusCode != 200 {
		t.Fatalf("batch via ensemble: %d %s", resp.StatusCode, body)
	}
}

// TestRouterServesVirtualNamesE2E drives routing through the HTTP API:
// small-db low-dim traffic lands on the sampling estimator, high-dim
// traffic on SelNet, and a concretely published "default" shadows the
// router.
func TestRouterServesVirtualNamesE2E(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	mustPublish(t, s.Registry(), "kde", modeltest.Builders()["kde"]())
	mustPublish(t, s.Registry(), "wide-net", modeltest.TinySelNet(1, 16))
	s.SetRouter(NewRouter(s.Registry(), RouterConfig{Mode: "auto"}))

	query3 := []float64{0.1, 0.2, 0.3}
	var er estimateResponse
	resp, body := postJSON(t, ts.URL+"/v1/estimate", estimateRequest{Model: "auto", Query: query3, T: 0.5})
	if resp.StatusCode != 200 {
		t.Fatalf("estimate via auto: %d %s", resp.StatusCode, body)
	}
	if json.Unmarshal(body, &er); er.Model != "kde" {
		t.Fatalf("dim-3 routed to %q, want kde", er.Model)
	}

	query16 := make([]float64, 16)
	resp, body = postJSON(t, ts.URL+"/v1/estimate", estimateRequest{Model: "default", Query: query16, T: 0.5})
	if resp.StatusCode != 200 {
		t.Fatalf("estimate via default: %d %s", resp.StatusCode, body)
	}
	if json.Unmarshal(body, &er); er.Model != "wide-net" {
		t.Fatalf("dim-16 routed to %q, want wide-net", er.Model)
	}

	// Batch requests route too.
	resp, body = postJSON(t, ts.URL+"/v1/estimate/batch",
		estimateBatchRequest{Model: "auto", Queries: [][]float64{query3, query3}, Ts: []float64{0.1, 0.2}})
	if resp.StatusCode != 200 {
		t.Fatalf("batch via auto: %d %s", resp.StatusCode, body)
	}

	// /stats surfaces the router section; /v1/models surfaces the
	// assignment on the chosen backend.
	var stats statsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Router == nil || stats.Router.Mode != "auto" || len(stats.Router.Decisions) == 0 {
		t.Fatalf("router stats = %+v", stats.Router)
	}
	var models struct {
		Models []modelInfo `json:"models"`
	}
	getJSON(t, ts.URL+"/v1/models", &models)
	foundAssignment := false
	for _, mi := range models.Models {
		if mi.Name == "kde" && len(mi.Router) > 0 {
			foundAssignment = true
		}
		if mi.Kind == "" || mi.Estimator == "" {
			t.Fatalf("model info missing kind/estimator: %+v", mi)
		}
	}
	if !foundAssignment {
		t.Fatalf("no router assignment on kde: %+v", models.Models)
	}

	// A concrete "default" shadows the router.
	mustPublish(t, s.Registry(), "default", modeltest.TinySelNet(2, 3))
	resp, body = postJSON(t, ts.URL+"/v1/estimate", estimateRequest{Query: query3, T: 0.5})
	if resp.StatusCode != 200 {
		t.Fatalf("estimate via concrete default: %d %s", resp.StatusCode, body)
	}
	if json.Unmarshal(body, &er); er.Model != "default" {
		t.Fatalf("concrete default shadowed by router: routed to %q", er.Model)
	}

	// /metrics exposes the decision counters.
	httpResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer httpResp.Body.Close()
	exposition, err := io.ReadAll(httpResp.Body)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	if !strings.Contains(string(exposition), `selestd_router_decisions_total{model="auto",backend="kde"}`) {
		t.Fatal("metrics missing selestd_router_decisions_total for auto->kde")
	}
}

func TestValidRouterMode(t *testing.T) {
	for _, good := range []string{"auto", "ensemble", "selnet", "kde", "umnn"} {
		if !ValidRouterMode(good) {
			t.Errorf("ValidRouterMode(%q) = false", good)
		}
	}
	// The deep baselines are not consistent, so the codec serves none.
	for _, bad := range []string{"", "best", "SELNET", "dnn", "moe", "rmi"} {
		if ValidRouterMode(bad) {
			t.Errorf("ValidRouterMode(%q) = true", bad)
		}
	}
}

// Routing a single estimate must stay allocation-free once the
// (table, dim) decision is cached.
func TestRouteZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocations")
	}
	_, rt := routerRegistry(t, "auto", "kde", "selnet")
	route := func() {
		if _, err := rt.Route("auto", 3); err != nil {
			t.Fatalf("route: %v", err)
		}
	}
	route() // warm the cache
	if got := testing.AllocsPerRun(200, route); got != 0 {
		t.Fatalf("Router.Route allocates %v per call, want 0", got)
	}
}

// BenchmarkRouterEstimate measures the routed single-estimate hot path;
// TestRouteZeroAllocs pins its allocations.
func BenchmarkRouterEstimate(b *testing.B) {
	_, rt := routerRegistry(b, "auto", "kde", "selnet")
	if _, err := rt.Route("auto", 3); err != nil { // warm the cache
		b.Fatalf("route: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := rt.Route("auto", 3)
		if err != nil {
			b.Fatal(err)
		}
		_ = m
	}
}

func mustPublish(t testing.TB, reg *Registry, name string, est Estimator) {
	t.Helper()
	if _, err := reg.Publish(name, est, "test"); err != nil {
		t.Fatalf("publish %s: %v", name, err)
	}
}
