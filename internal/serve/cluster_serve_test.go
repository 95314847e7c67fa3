package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"selnet/internal/obs"
)

// fakeCluster is a scriptable ClusterRouter: tests point reads and
// writes wherever they like.
type fakeCluster struct {
	readTargets []string
	readLocal   bool
	writeTarget string
	writeLocal  bool
}

func (f *fakeCluster) RouteRead(model string) ([]string, bool) { return f.readTargets, f.readLocal }
func (f *fakeCluster) RouteWrite(model string) (string, bool)  { return f.writeTarget, f.writeLocal }
func (f *fakeCluster) ShardMap() any                           { return map[string]string{"self": "here"} }
func (f *fakeCluster) ClusterStats() any                       { return map[string]string{"self": "here"} }
func (f *fakeCluster) Handler() http.Handler                   { return http.NotFoundHandler() }

// WriteMetrics writes the nine cluster families a node renders: one led
// model with a lagging peer and a promotion, one followed model with a
// demotion, and pull traffic with one failure.
func (f *fakeCluster) WriteMetrics(p *obs.PromWriter) {
	for _, m := range []struct {
		name                      string
		leader, term, fail, demot float64
	}{{"m", 1, 3, 1, 0}, {"shadow", 0, 2, 0, 1}} {
		p.Value("selestd_cluster_is_leader", "1 when this node leads the model's replica group.", "gauge", m.leader, "model", m.name)
		p.Value("selestd_cluster_term", "Leadership term of the model's replica group.", "gauge", m.term, "model", m.name)
		p.Value("selestd_cluster_failovers_total", "Leader promotions won by this node.", "counter", m.fail, "model", m.name)
		p.Value("selestd_cluster_demotions_total", "Leaderships this node ceded to a higher-term claim.", "counter", m.demot, "model", m.name)
		p.Value("selestd_replication_diverged", "1 when the local replica's journal conflicts with the leader's history and needs a reseed.", "gauge", 0, "model", m.name)
	}
	p.Value("selestd_replication_lag", "Leader sequence minus the peer's replicated sequence.", "gauge", 4, "model", "m", "peer", "http://peer:9")
	p.Value("selestd_replication_lag", "Leader sequence minus the peer's replicated sequence.", "gauge", 0, "model", "shadow", "peer", "http://here:1")
	p.Value("selestd_replication_pulls_total", "WAL pull round-trips made as a follower.", "counter", 2)
	p.Value("selestd_replication_pull_errors_total", "WAL pulls that failed.", "counter", 1)
	p.Value("selestd_replication_entries_total", "WAL entries replicated into the local journal.", "counter", 5)
}

func localCluster() *fakeCluster {
	return &fakeCluster{readLocal: true, writeLocal: true}
}

// newClusterTestServer builds a server with the router attached before
// the handler exists, so the /v1/cluster routes register.
func newClusterTestServer(t *testing.T, fc *fakeCluster) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(Config{})
	s.SetCluster(fc)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func TestRetryAfterOnBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if _, err := s.Registry().Publish("m", tinyNet(21, 3), "mem"); err != nil {
		t.Fatal(err)
	}
	s.SetUpdater(&fakeUpdater{err: ErrUpdateQueueFull})
	resp, _ := postJSON(t, ts.URL+"/v1/models/m/update", map[string]any{"insert": [][]float64{{1, 2, 3}}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestNotLeaderAnswers503WithRetryAfter(t *testing.T) {
	fc := localCluster()
	s, ts := newClusterTestServer(t, fc)
	if _, err := s.Registry().Publish("m", tinyNet(22, 3), "mem"); err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{ErrNotLeader, ErrReplicationTimeout} {
		s.SetUpdater(&fakeUpdater{err: err})
		resp, _ := postJSON(t, ts.URL+"/v1/models/m/update", map[string]any{"insert": [][]float64{{1, 2, 3}}})
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%v: status %d, want 503", err, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%v: 503 without Retry-After", err)
		}
	}
}

func TestClusterMapRoute(t *testing.T) {
	_, ts := newClusterTestServer(t, localCluster())
	var sm map[string]string
	resp := getJSON(t, ts.URL+"/v1/cluster", &sm)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if sm["self"] != "here" {
		t.Fatalf("shard map %v", sm)
	}
}

// TestForwarding proxies an estimate and an update from a router node
// to the node that owns the model, asserting the answer comes back
// verbatim, the trace ID survives the hop, and the forwarded request
// carries the hop count (so the remote side serves locally instead of
// forwarding again).
func TestForwarding(t *testing.T) {
	// Owner: hosts the model, everything local.
	owner, ownerTS := newClusterTestServer(t, localCluster())
	if _, err := owner.Registry().Publish("m", tinyNet(23, 3), "mem"); err != nil {
		t.Fatal(err)
	}
	owner.SetUpdater(&fakeUpdater{ack: UpdateAck{Seq: 42, QueueDepth: 1}})

	var hopSeen string
	tap := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hopSeen = r.Header.Get(ForwardedHeader)
		ownerTS.Config.Handler.ServeHTTP(w, r)
	}))
	defer tap.Close()

	// Router: hosts nothing; reads and writes both point at the owner.
	router := &fakeCluster{readTargets: []string{tap.URL}, writeTarget: tap.URL}
	_, routerTS := newClusterTestServer(t, router)

	resp, body := postJSON(t, routerTS.URL+"/v1/estimate",
		map[string]any{"model": "m", "query": []float64{0.1, 0.2, 0.3}, "t": 0.5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded estimate: status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"estimate"`) {
		t.Fatalf("forwarded estimate body %q", body)
	}
	if hopSeen != "1" {
		t.Fatalf("forwarded request hop count %q, want 1", hopSeen)
	}
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Fatal("forwarded response lost the trace id")
	}

	resp, body = postJSON(t, routerTS.URL+"/v1/models/m/update",
		map[string]any{"insert": [][]float64{{1, 2, 3}}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("forwarded update: status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"seq":42`) {
		t.Fatalf("forwarded update body %q", body)
	}
}

// TestForwardingNoReplicaReachable: every candidate dead -> 503 with
// Retry-After, not a hang or a panic.
func TestForwardingNoReplicaReachable(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // now refusing connections
	router := &fakeCluster{readTargets: []string{dead.URL}}
	_, ts := newClusterTestServer(t, router)
	resp, _ := postJSON(t, ts.URL+"/v1/estimate",
		map[string]any{"model": "m", "query": []float64{0.1}, "t": 0.5})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// TestLeaderlessWriteAnswers503: a hosted model with no known leader
// cannot accept or forward writes.
func TestLeaderlessWriteAnswers503(t *testing.T) {
	router := &fakeCluster{} // writeTarget "", writeLocal false
	_, ts := newClusterTestServer(t, router)
	resp, body := postJSON(t, ts.URL+"/v1/models/m/update",
		map[string]any{"insert": [][]float64{{1, 2, 3}}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("leaderless 503 without Retry-After")
	}
}

func TestHopCount(t *testing.T) {
	mk := func(h string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/estimate", nil)
		if h != "" {
			r.Header.Set(ForwardedHeader, h)
		}
		return r
	}
	if got := hopCount(mk("")); got != 0 {
		t.Fatalf("no header: %d", got)
	}
	if got := hopCount(mk("1")); got != 1 {
		t.Fatalf("hop 1: %d", got)
	}
	// Garbage or negative counts clamp to the max so they never forward.
	if got := hopCount(mk("zzz")); got != maxForwardHops {
		t.Fatalf("garbage: %d", got)
	}
	if got := hopCount(mk("-3")); got != maxForwardHops {
		t.Fatalf("negative: %d", got)
	}
}
