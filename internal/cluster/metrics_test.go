package cluster

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"selnet/internal/obs"
)

// scrape renders n's cluster families as one /metrics pass would.
func scrape(n *Node) string {
	var b strings.Builder
	pw := obs.NewPromWriter(&b)
	n.WriteMetrics(pw)
	pw.Flush()
	return b.String()
}

// sample returns the value of one series (name plus label set, exactly
// as exposed) in a scrape, and whether the series is present.
func sample(t *testing.T, out, series string) (float64, bool) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return f, true
		}
	}
	return 0, false
}

// lagSeries names model "m"'s replication-lag series for one peer.
func lagSeries(peer string) string {
	return `selestd_replication_lag{model="m",peer="` + peer + `"}`
}

// pullAs makes one WAL pull against a leader's intra-cluster API as
// replica peer: asking from `from` proves from-1 is journaled there.
func pullAs(t *testing.T, base, peer string, from uint64) {
	t.Helper()
	resp, err := http.Get(base + "/v1/cluster/wal/m?from=" + strconv.FormatUint(from, 10) + "&peer=" + url.QueryEscape(peer))
	if err != nil {
		t.Fatal(err)
	}
	drain(resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pull from=%d as %s: status %d", from, peer, resp.StatusCode)
	}
}

// enqueueN journals k one-row batches through leader n.
func enqueueN(t *testing.T, n *Node, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		if _, err := n.Enqueue("m", [][]float64{vec(i)}, nil); err != nil {
			t.Fatalf("enqueue: %v", err)
		}
	}
}

func TestLeaderLagGrowsWhileFollowerSilent(t *testing.T) {
	n, follower := newLeaderNode(t)
	ts := httptest.NewServer(n.Handler())
	defer ts.Close()

	enqueueN(t, n, 2)
	pullAs(t, ts.URL, follower, 2) // the follower journaled seq 1, then stops pulling
	for want := 1.0; want <= 4; want++ {
		if got, ok := sample(t, scrape(n), lagSeries(follower)); !ok || got != want {
			t.Fatalf("lag of silent follower = %v (present %v), want %v", got, ok, want)
		}
		enqueueN(t, n, 1)
	}
}

func TestDemotedLeaderExportsNoFollowerLag(t *testing.T) {
	n, follower := newLeaderNode(t)
	ts := httptest.NewServer(n.Handler())
	defer ts.Close()

	enqueueN(t, n, 2)
	pullAs(t, ts.URL, follower, 3)
	if _, ok := sample(t, scrape(n), lagSeries(follower)); !ok {
		t.Fatal("leader exports no lag for a follower that pulled")
	}

	n.mu.Lock()
	n.followLocked(n.models["m"], follower, 2, time.Now(), "test")
	n.mu.Unlock()
	out := scrape(n)
	if strings.Contains(out, `peer="`+follower+`"`) {
		t.Fatalf("demoted leader still exports its old follower's lag:\n%s", out)
	}
	if _, ok := sample(t, out, lagSeries(n.cfg.Self)); !ok {
		t.Fatalf("demoted leader exports no lag of its own:\n%s", out)
	}
}

func TestPromotedFollowerExportsNoSelfLag(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node integration test")
	}
	nodes := startCluster(t, 3)
	var lead *testNode
	waitFor(t, 5*time.Second, "initial leader", func() bool {
		lead = leaderOf(nodes)
		return lead != nil
	})
	enqueueN(t, lead.node, 3)
	for _, tn := range nodes {
		if tn == lead {
			continue
		}
		tn := tn
		waitFor(t, 5*time.Second, "follower lag series", func() bool {
			v, ok := sample(t, scrape(tn.node), lagSeries(tn.url))
			return ok && v == 0
		})
	}

	lead.kill()
	var next *testNode
	waitFor(t, 5*time.Second, "failover", func() bool {
		for _, tn := range nodes {
			if tn != lead && tn.node.ClusterStats().(ClusterStatsResponse).Models["m"].Leader {
				next = tn
				return true
			}
		}
		return false
	})
	if out := scrape(next.node); strings.Contains(out, `peer="`+next.url+`"`) {
		t.Fatalf("promoted follower still exports its own lag:\n%s", out)
	}
}

// TestFreshClusterCountsNoFailover: the placement home's bootstrap
// claim of term 1 is not a failover, so no node of a cluster that never
// lost a leader counts one.
func TestFreshClusterCountsNoFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node integration test")
	}
	nodes := startCluster(t, 3)
	waitFor(t, 5*time.Second, "initial leader", func() bool { return leaderOf(nodes) != nil })
	for _, tn := range nodes {
		if v, ok := sample(t, scrape(tn.node), `selestd_cluster_failovers_total{model="m"}`); !ok || v != 0 {
			t.Errorf("%s failovers_total = %v (present %v) on a fresh cluster, want 0", tn.url, v, ok)
		}
	}
}

// TestNewLeaderExportsLagForDeadReplica: a leader lists every replica
// peer from its promotion on, so the one that died with the old term
// has a lag series (and a follower_ack entry) before it ever pulls.
func TestNewLeaderExportsLagForDeadReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node integration test")
	}
	nodes := startCluster(t, 3)
	var lead *testNode
	waitFor(t, 5*time.Second, "initial leader", func() bool {
		lead = leaderOf(nodes)
		return lead != nil
	})
	enqueueN(t, lead.node, 3)
	lead.kill()
	var next *testNode
	waitFor(t, 5*time.Second, "failover", func() bool {
		for _, tn := range nodes {
			if tn != lead && tn.node.ClusterStats().(ClusterStatsResponse).Models["m"].Leader {
				next = tn
				return true
			}
		}
		return false
	})

	st := next.node.ClusterStats().(ClusterStatsResponse).Models["m"]
	out := scrape(next.node)
	if ack, ok := st.FollowerAck[lead.url]; !ok || ack != 0 {
		t.Fatalf("follower_ack = %v, want the dead %s at 0", st.FollowerAck, lead.url)
	}
	if got, ok := sample(t, out, lagSeries(lead.url)); !ok || got != float64(st.LastSeq) || got < 3 {
		t.Fatalf("lag of the dead replica = %v (present %v), want the leader's last seq %d:\n%s", got, ok, st.LastSeq, out)
	}
	if len(st.FollowerAck) != 2 || strings.Count(out, "selestd_replication_lag{") != 2 {
		t.Fatalf("follower_ack %v and lag series must both list the two other replicas:\n%s", st.FollowerAck, out)
	}
	if v, _ := sample(t, out, `selestd_cluster_failovers_total{model="m"}`); v != 1 {
		t.Fatalf("new leader failovers_total = %v, want 1", v)
	}
}

func TestFollowerStatsLagMatchesMetrics(t *testing.T) {
	n, leader := newLeaderNode(t)
	ms := n.models["m"]
	n.mu.Lock()
	n.followLocked(ms, leader, 2, time.Now(), "test")
	ms.leaderLast = 5 // as a WAL chunk from a leader at seq 5 reports
	n.mu.Unlock()

	st := n.ClusterStats().(ClusterStatsResponse).Models["m"]
	got, ok := sample(t, scrape(n), lagSeries(n.cfg.Self))
	if !ok || got != float64(st.Lag) || st.Lag != 5 {
		t.Fatalf("/metrics lag %v (present %v), /stats lag %d, want both 5", got, ok, st.Lag)
	}
}

func TestScrapeConcurrentWithClusterLoops(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node integration test")
	}
	nodes := startCluster(t, 3)
	var lead *testNode
	waitFor(t, 5*time.Second, "initial leader", func() bool {
		lead = leaderOf(nodes)
		return lead != nil
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, tn := range nodes {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				scrape(n)
				n.ClusterStats()
			}
		}(tn.node)
	}
	enqueueN(t, lead.node, 10)
	last, _, _ := lead.pipe.Position("m")
	for _, tn := range nodes {
		tn := tn
		waitFor(t, 5*time.Second, "replication convergence", func() bool {
			got, _, ok := tn.pipe.Position("m")
			return ok && got >= last
		})
	}
	close(stop)
	wg.Wait()

	// Quiescent: each follower's /metrics lag is its /stats lag, and the
	// leader's per-follower lag is its last sequence minus the ack.
	for _, tn := range nodes {
		st := tn.node.ClusterStats().(ClusterStatsResponse).Models["m"]
		out := scrape(tn.node)
		if tn == lead {
			for peer, ack := range st.FollowerAck {
				if got, _ := sample(t, out, lagSeries(peer)); got != float64(st.LastSeq-ack) {
					t.Errorf("leader lag for %s = %v, want %d", peer, got, st.LastSeq-ack)
				}
			}
			continue
		}
		if got, ok := sample(t, out, lagSeries(tn.url)); !ok || got != float64(st.Lag) {
			t.Errorf("follower %s: /metrics lag %v (present %v), /stats lag %d", tn.url, got, ok, st.Lag)
		}
	}
}
