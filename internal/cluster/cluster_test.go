package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"selnet/internal/ingest"
	"selnet/internal/selnet"
	"selnet/internal/serve"
	"selnet/internal/vecdata"
)

// ----------------------------------------------------------------------------
// Placement

func TestPlacementDeterministicAndDistinct(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	for _, model := range []string{"m", "faces", "deep1b", "x/y"} {
		got := Placement(peers, 3, model)
		if len(got) != 3 {
			t.Fatalf("%s: got %d replicas, want 3", model, len(got))
		}
		seen := map[string]bool{}
		for _, n := range got {
			if seen[n] {
				t.Fatalf("%s: duplicate replica %s in %v", model, n, got)
			}
			seen[n] = true
		}
		// Same placement regardless of peer-list order.
		shuffled := []string{"http://d:1", "http://b:1", "http://a:1", "http://c:1"}
		again := Placement(shuffled, 3, model)
		for i := range got {
			if got[i] != again[i] {
				t.Fatalf("%s: placement depends on peer order: %v vs %v", model, got, again)
			}
		}
	}
}

func TestPlacementClampsToClusterSize(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1"}
	if got := Placement(peers, 5, "m"); len(got) != 2 {
		t.Fatalf("got %v, want both peers", got)
	}
	if got := Placement(nil, 3, "m"); got != nil {
		t.Fatalf("empty peer list: got %v", got)
	}
}

func TestPlacementSpreadsModels(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1", "http://c:1"}
	homes := map[string]int{}
	for i := 0; i < 30; i++ {
		homes[Placement(peers, 2, fmt.Sprintf("model-%d", i))[0]]++
	}
	if len(homes) < 2 {
		t.Fatalf("30 models all homed on one node: %v", homes)
	}
}

// ----------------------------------------------------------------------------
// Node config

func TestNewNodeValidation(t *testing.T) {
	p := newClusterPipeline(t, t.TempDir())
	if _, err := NewNode(Config{Peers: []string{"http://a:1"}, Pipe: p}); err == nil {
		t.Fatal("missing self accepted")
	}
	if _, err := NewNode(Config{Self: "http://z:1", Peers: []string{"http://a:1"}, Pipe: p}); err == nil {
		t.Fatal("self outside peer list accepted")
	}
	if _, err := NewNode(Config{Self: "http://a:1", Peers: []string{"http://a:1"}}); err == nil {
		t.Fatal("missing pipeline accepted")
	}
	n, err := NewNode(Config{Self: "http://a:1", Peers: []string{"http://a:1", "http://b:1"},
		Replicas: 2, Models: []string{"m"}, Pipe: p})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Hosted(); len(got) != 1 || got[0] != "m" {
		t.Fatalf("R=2 over 2 nodes must host everywhere, got %v", got)
	}
}

// ----------------------------------------------------------------------------
// Integration: replication + failover over real pipelines and HTTP

// testDim is the vector dimensionality of the integration fixtures.
const testDim = 4

func clusterModel(seed int64) *selnet.Net {
	cfg := selnet.Config{
		L: 4, EmbedDim: 4,
		AEHidden: []int{8}, AELatent: 4,
		TauHidden: []int{8}, MHidden: []int{8},
		TMax: 16, Lambda: 0.1, QueryDependentTau: true, NormEps: 1e-6,
	}
	return selnet.NewNet(rand.New(rand.NewSource(seed)), testDim, cfg)
}

// newClusterPipeline builds a durable pipeline with one attached model
// "m" whose δ_U trigger never fires (replication tests exercise the
// journal, not retraining).
func newClusterPipeline(t *testing.T, dir string) *ingest.Pipeline {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	db := vecdata.SyntheticFace(rng, 150, testDim)
	wl := vecdata.GeometricWorkload(rng, db, 8, 4)
	cut := len(wl.Queries) * 3 / 4
	p := ingest.New(ingest.Config{
		Registry: serve.NewRegistry(nil),
		Train:    selnet.TrainConfig{Epochs: 1, Batch: 32, LR: 5e-3, HuberDelta: 1.345, LogEps: 1e-3, Seed: 1},
		Update:   selnet.UpdateConfig{DeltaU: 1e12, Patience: 1, MaxEpochs: 1},
		Journal:  ingest.JournalConfig{Dir: dir},
	})
	t.Cleanup(p.Close)
	if err := p.Attach("m", clusterModel(12), db, wl.Queries[:cut], wl.Queries[cut:]); err != nil {
		t.Fatal(err)
	}
	return p
}

// testNode is one in-process cluster member: pipeline, node, and an
// HTTP server exposing the intra-cluster API on a real listener.
type testNode struct {
	url  string
	pipe *ingest.Pipeline
	node *Node
	srv  *http.Server
	ln   net.Listener
}

// kill simulates a crash: the listener dies and every loop stops, but
// nothing is drained gracefully.
func (tn *testNode) kill() {
	tn.srv.Close()
	tn.node.Close()
}

// startCluster brings up n members with fast failover timings. Every
// node hosts model "m" (R = n).
func startCluster(t *testing.T, n int) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	peers := make([]string, n)
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = &testNode{ln: ln, url: "http://" + ln.Addr().String()}
		peers[i] = nodes[i].url
	}
	for i, tn := range nodes {
		tn.pipe = newClusterPipeline(t, t.TempDir())
		node, err := NewNode(Config{
			Self: tn.url, Peers: peers, Replicas: n, Models: []string{"m"}, Pipe: tn.pipe,
			Heartbeat: 20 * time.Millisecond, FailAfter: 150 * time.Millisecond,
			AckFollowers: 1, AckTimeout: 3 * time.Second,
			PullBatch: 8, PullWait: 50 * time.Millisecond,
			Client: &http.Client{Timeout: 2 * time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		tn.node = node
		tn.srv = &http.Server{Handler: node.Handler()}
		go tn.srv.Serve(tn.ln)
		t.Cleanup(func() { tn.srv.Close(); node.Close() })
		_ = i
	}
	for _, tn := range nodes {
		tn.node.Start()
	}
	return nodes
}

func leaderOf(nodes []*testNode) *testNode {
	for _, tn := range nodes {
		tn.node.mu.Lock()
		lead := tn.node.models["m"].leader
		tn.node.mu.Unlock()
		if lead {
			return tn
		}
	}
	return nil
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func vec(i int) []float64 {
	return []float64{float64(i), float64(i) + 0.5, -float64(i), 0.25}
}

func TestClusterReplicationAndFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node integration test")
	}
	nodes := startCluster(t, 3)

	var lead *testNode
	waitFor(t, 5*time.Second, "initial leader", func() bool {
		lead = leaderOf(nodes)
		return lead != nil
	})
	// The placement home wins the uncontested bootstrap election.
	if want := Placement([]string{nodes[0].url, nodes[1].url, nodes[2].url}, 3, "m")[0]; lead.url != want {
		t.Fatalf("bootstrap leader %s, want placement home %s", lead.url, want)
	}

	// A follower refuses writes with ErrNotLeader so the serving layer
	// proxies them.
	for _, tn := range nodes {
		if tn == lead {
			continue
		}
		if _, err := tn.node.Enqueue("m", [][]float64{vec(0)}, nil); !errors.Is(err, serve.ErrNotLeader) {
			t.Fatalf("follower Enqueue: %v, want ErrNotLeader", err)
		}
	}

	// Acknowledged writes are journaled on at least one follower before
	// the ack returns (AckFollowers=1).
	var lastSeq uint64
	for i := 1; i <= 5; i++ {
		ack, err := lead.node.Enqueue("m", [][]float64{vec(i)}, nil)
		if err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		lastSeq = ack.Seq
	}
	journaled := 0
	for _, tn := range nodes {
		if tn == lead {
			continue
		}
		if last, _, _ := tn.pipe.Position("m"); last >= lastSeq {
			journaled++
		}
	}
	if journaled == 0 {
		t.Fatalf("no follower journaled seq %d despite semi-sync ack", lastSeq)
	}
	// And replication converges everywhere (both followers, applied),
	// as each node's ingest stats report too.
	for _, tn := range nodes {
		tn := tn
		waitFor(t, 5*time.Second, "replication convergence", func() bool {
			last, applied, ok := tn.pipe.Position("m")
			return ok && last >= lastSeq && applied >= lastSeq
		})
		if st := tn.node.UpdaterStats()["m"]; st.AppliedSeq < lastSeq {
			t.Fatalf("%s UpdaterStats applied_seq = %d, want >= %d", tn.url, st.AppliedSeq, lastSeq)
		}
	}

	// The shard map names the leader.
	sm := lead.node.ShardMap().(ShardMapResponse)
	if len(sm.Models) != 1 || sm.Models[0].Leader != lead.url {
		t.Fatalf("shard map %+v does not name leader %s", sm, lead.url)
	}

	// Crash the leader. The most caught-up follower must take over with
	// a higher term.
	oldURL := lead.url
	oldTerm := sm.Models[0].Term
	lead.kill()
	var next *testNode
	waitFor(t, 5*time.Second, "failover", func() bool {
		for _, tn := range nodes {
			if tn.url == oldURL {
				continue
			}
			tn.node.mu.Lock()
			ms := tn.node.models["m"]
			lead, term := ms.leader, ms.term
			tn.node.mu.Unlock()
			if lead && term > oldTerm {
				next = tn
				return true
			}
		}
		return false
	})

	// No acknowledged batch was lost: the new leader's journal holds
	// every acked sequence.
	if last, _, _ := next.pipe.Position("m"); last < lastSeq {
		t.Fatalf("new leader journal at %d, acked through %d", last, lastSeq)
	}

	// Writes flow again through the new leader (the surviving follower
	// supplies the semi-sync ack).
	ack, err := next.node.Enqueue("m", [][]float64{vec(100)}, nil)
	if err != nil {
		t.Fatalf("post-failover enqueue: %v", err)
	}
	if ack.Seq <= lastSeq {
		t.Fatalf("post-failover seq %d did not advance past %d", ack.Seq, lastSeq)
	}

	// The surviving follower converges on the new history.
	for _, tn := range nodes {
		if tn.url == oldURL || tn == next {
			continue
		}
		tn := tn
		waitFor(t, 5*time.Second, "post-failover convergence", func() bool {
			last, _, ok := tn.pipe.Position("m")
			return ok && last >= ack.Seq
		})
	}

	// /metrics counts the promotion.
	if v, _ := sample(t, scrape(next.node), `selestd_cluster_failovers_total{model="m"}`); v == 0 {
		t.Fatal("promotion not counted in /metrics")
	}
}

// newLeaderNode builds an unstarted two-peer node hosting "m" that has
// promoted itself, plus its follower's URL — the fixture for the ack
// credit and divergence tests (no loops run; state is driven by hand).
func newLeaderNode(t *testing.T) (*Node, string) {
	t.Helper()
	p := newClusterPipeline(t, t.TempDir())
	self, follower := "http://self:1", "http://b:1"
	n, err := NewNode(Config{
		Self: self, Peers: []string{self, follower}, Replicas: 2,
		Models: []string{"m"}, Pipe: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	n.promoteLocked(n.models["m"], 1, "test")
	n.mu.Unlock()
	return n, follower
}

func TestWALPullCreditClampedToReplicaSet(t *testing.T) {
	n, follower := newLeaderNode(t)
	ts := httptest.NewServer(n.Handler())
	defer ts.Close()
	get := func(q string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/cluster/wal/m?" + q)
		if err != nil {
			t.Fatal(err)
		}
		drain(resp)
		return resp.StatusCode
	}
	ack := func() map[string]uint64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		out := make(map[string]uint64)
		for k, v := range n.models["m"].followerAck {
			out[k] = v
		}
		return out
	}

	// Empty journal: from=1 is the caught-up cursor; anything further
	// means the puller journaled sequences this leader never assigned.
	if code := get("from=2&peer=" + url.QueryEscape(follower)); code != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("divergent cursor on empty journal: status %d, want 416", code)
	}
	if got := ack(); len(got) != 1 || got[follower] != 0 {
		t.Fatalf("rejected pull still credited an ack: %v", got)
	}

	for i := 1; i <= 3; i++ {
		if _, err := n.Enqueue("m", [][]float64{vec(i)}, nil); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	// A legitimate replica cursor earns credit for the prefix it proves.
	if code := get("from=2&peer=" + url.QueryEscape(follower)); code != http.StatusOK {
		t.Fatalf("replica pull: status %d", code)
	}
	if got := ack(); got[follower] != 1 {
		t.Fatalf("followerAck = %v, want %q -> 1", got, follower)
	}
	// A puller outside the replica set never does — the endpoint is on
	// the public listener, and semi-sync acks must not be forgeable.
	if code := get("from=4&peer=" + url.QueryEscape("http://evil:1")); code != http.StatusOK {
		t.Fatalf("outsider pull: status %d", code)
	}
	if got := ack(); len(got) != 1 || got[follower] != 1 {
		t.Fatalf("outsider peer earned ack credit: %v", got)
	}
	// A cursor past the leader's tip is refused and the credit (a
	// monotonic max) must not jump past reality.
	if code := get("from=10&peer=" + url.QueryEscape(follower)); code != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("cursor past tip: status %d, want 416", code)
	}
	if got := ack(); got[follower] != 1 {
		t.Fatalf("rejected cursor moved the ack credit: %v", got)
	}
}

func TestDemotionWithUnreplicatedSuffixMarksDiverged(t *testing.T) {
	n, follower := newLeaderNode(t)
	ms := n.models["m"]

	// Two journaled batches, both acked by the follower: demotion is
	// clean — the successor provably holds our whole journal.
	for i := 1; i <= 2; i++ {
		if _, err := n.Enqueue("m", [][]float64{vec(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	n.mu.Lock()
	ms.followerAck[follower] = 2
	n.followLocked(ms, follower, 2, time.Now(), "test")
	diverged := ms.diverged
	n.mu.Unlock()
	if diverged {
		t.Fatal("fully replicated demotion flagged as diverged")
	}

	// Re-promoted, one more batch that no follower ever pulls: being
	// deposed now strands a suffix the new leader cannot have.
	n.mu.Lock()
	n.promoteLocked(ms, 3, "test")
	n.mu.Unlock()
	if _, err := n.Enqueue("m", [][]float64{vec(3)}, nil); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	n.followLocked(ms, follower, 4, time.Now(), "test")
	diverged = ms.diverged
	n.mu.Unlock()
	if !diverged {
		t.Fatal("deposed leader with unreplicated suffix not flagged as diverged")
	}
	if v, _ := sample(t, scrape(n), `selestd_replication_diverged{model="m"}`); v != 1 {
		t.Fatalf("selestd_replication_diverged = %v, want 1", v)
	}
	st := n.ClusterStats().(ClusterStatsResponse)
	if !st.Models["m"].Diverged {
		t.Fatalf("/stats does not report divergence: %+v", st.Models["m"])
	}
}

func TestPullRejectionMarksDiverged(t *testing.T) {
	n, follower := newLeaderNode(t)
	ms := n.models["m"]
	n.mu.Lock()
	n.followLocked(ms, follower, 2, time.Now(), "test")
	n.mu.Unlock()

	n.handlePullError("m", follower, errDivergedPeer)
	n.mu.Lock()
	diverged := ms.diverged
	n.mu.Unlock()
	if !diverged {
		t.Fatal("416 pull rejection did not latch the divergence flag")
	}
}

// TestPullFromNonLeaderAdoptsItsHint drives the 409 path of a WAL
// pull: a peer that no longer leads answers with its leader hint, and
// the puller that thought it led takes the hint.
func TestPullFromNonLeaderAdoptsItsHint(t *testing.T) {
	n, _ := newLeaderNode(t)
	ms := n.models["m"]
	const hint = "http://c:1"
	n.mu.Lock()
	n.followLocked(ms, hint, 2, time.Now(), "test")
	n.mu.Unlock()
	ts := httptest.NewServer(n.Handler())
	defer ts.Close()

	_, err := n.fetchWAL(ts.URL, "m", 1)
	var notLeader *errNotLeaderPeer
	if !errors.As(err, &notLeader) || notLeader.Leader != hint || err.Error() != "cluster: peer is not the leader" {
		t.Fatalf("pull from a non-leader: err = %v, want errNotLeaderPeer with hint %s", err, hint)
	}
	n.mu.Lock()
	ms.leaderURL = ts.URL
	n.mu.Unlock()
	n.handlePullError("m", ts.URL, err)
	n.mu.Lock()
	got := ms.leaderURL
	n.mu.Unlock()
	if got != hint {
		t.Fatalf("leader after a 409 = %s, want the hint %s", got, hint)
	}
}

// TestClusterMetricsRenderNodeState renders a node through every role
// change and counter: the nine families with their types, divergence
// latched and shown once, and the promotion, demotion and pull counts.
func TestClusterMetricsRenderNodeState(t *testing.T) {
	n, follower := newLeaderNode(t)
	ms := n.models["m"]
	ms.promotions++ // as electLocked counts a won election: one, term 1
	enqueueN(t, n, 1)
	n.countPull(5, false)
	n.countPull(0, true)
	n.mu.Lock()
	n.followLocked(ms, follower, 2, time.Now(), "test") // seq 1 unacked: diverged
	n.markDivergedLocked(ms, "test")                    // latched, not counted twice
	n.mu.Unlock()

	out := scrape(n)
	for fam, typ := range map[string]string{
		"selestd_cluster_is_leader":             "gauge",
		"selestd_cluster_term":                  "gauge",
		"selestd_cluster_failovers_total":       "counter",
		"selestd_cluster_demotions_total":       "counter",
		"selestd_replication_diverged":          "gauge",
		"selestd_replication_lag":               "gauge",
		"selestd_replication_pulls_total":       "counter",
		"selestd_replication_pull_errors_total": "counter",
		"selestd_replication_entries_total":     "counter",
	} {
		if !strings.Contains(out, "# TYPE "+fam+" "+typ+"\n") {
			t.Errorf("exposition lacks # TYPE %s %s:\n%s", fam, typ, out)
		}
	}
	want := map[string]float64{
		`selestd_cluster_is_leader{model="m"}`:       0,
		`selestd_cluster_term{model="m"}`:            2,
		`selestd_cluster_failovers_total{model="m"}`: 1,
		`selestd_cluster_demotions_total{model="m"}`: 1,
		`selestd_replication_diverged{model="m"}`:    1,
		lagSeries(n.cfg.Self):                        0,
		`selestd_replication_pulls_total`:            2,
		`selestd_replication_pull_errors_total`:      1,
		`selestd_replication_entries_total`:          5,
	}
	for series, v := range want {
		if got, ok := sample(t, out, series); !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, v)
		}
	}
	if c := strings.Count(out, "selestd_replication_diverged{"); c != 1 {
		t.Errorf("%d diverged series, want 1", c)
	}

	// Re-promoted, the series follow the role at once.
	n.mu.Lock()
	n.promoteLocked(ms, 3, "test")
	ms.promotions++
	n.mu.Unlock()
	out = scrape(n)
	for series, v := range map[string]float64{
		`selestd_cluster_is_leader{model="m"}`:       1,
		`selestd_cluster_term{model="m"}`:            3,
		`selestd_cluster_failovers_total{model="m"}`: 2,
	} {
		if got, _ := sample(t, out, series); got != v {
			t.Errorf("after re-promotion %s = %v, want %v", series, got, v)
		}
	}
	// The follower has not pulled this term: ack 0, so its lag is the
	// whole journal (seq 1).
	if got, ok := sample(t, out, lagSeries(follower)); !ok || got != 1 || strings.Count(out, "selestd_replication_lag{") != 1 {
		t.Errorf("a re-promoted leader exports lag %v (present %v) for %s, want 1 and no other series:\n%s", got, ok, follower, out)
	}
}

func TestClusterRouting(t *testing.T) {
	p := newClusterPipeline(t, t.TempDir())
	peers := []string{"http://a:1", "http://b:1", "http://c:1"}
	// Place "m" on 2 of 3 nodes and build the node that does NOT host it.
	reps := Placement(peers, 2, "m")
	var outsider string
	for _, peer := range peers {
		hosted := false
		for _, r := range reps {
			hosted = hosted || r == peer
		}
		if !hosted {
			outsider = peer
		}
	}
	n, err := NewNode(Config{Self: outsider, Peers: peers, Replicas: 2, Models: []string{"m"}, Pipe: p})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Hosted(); len(got) != 0 {
		t.Fatalf("outsider hosts %v", got)
	}
	targets, local := n.RouteRead("m")
	if local || len(targets) != 2 {
		t.Fatalf("outsider read: local=%v targets=%v", local, targets)
	}
	// Round-robin rotates the candidate order.
	targets2, _ := n.RouteRead("m")
	if targets[0] == targets2[0] {
		t.Fatalf("read fan-out did not rotate: %v then %v", targets, targets2)
	}
	target, local := n.RouteWrite("m")
	if local || target != reps[0] {
		t.Fatalf("outsider write: local=%v target=%q, want home %q", local, target, reps[0])
	}
	// Unknown models stay local so the handler can 404.
	if _, local := n.RouteRead("ghost"); !local {
		t.Fatal("unknown model should route locally")
	}
	if _, err := n.Enqueue("m", [][]float64{vec(1)}, nil); !errors.Is(err, serve.ErrNotUpdatable) {
		t.Fatalf("outsider Enqueue: %v, want ErrNotUpdatable", err)
	}
}
