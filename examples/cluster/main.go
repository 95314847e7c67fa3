// Cluster: run a three-node selestd cluster in one process — the same
// internal/cluster + internal/serve wiring cmd/selestd uses, just on
// loopback listeners. The example trains one small model, forms the
// cluster, ingests acknowledged updates through the leader, proxies a
// write through a follower, prints the shard map, then crashes the
// leader and shows a follower being promoted with zero acknowledged
// loss.
//
//	go run ./examples/cluster
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"selnet/internal/cluster"
	"selnet/internal/ingest"
	"selnet/internal/modelcodec"
	"selnet/internal/selnet"
	"selnet/internal/serve"
	"selnet/internal/vecdata"
)

type member struct {
	url  string
	pipe *ingest.Pipeline
	node *cluster.Node
	http *http.Server
}

// crash kills the member the hard way: listener down, loops stopped,
// nothing drained — the in-process equivalent of SIGKILL.
func (m *member) crash() {
	m.http.Close()
	m.node.Close()
	m.pipe.Close()
}

func main() {
	rng := rand.New(rand.NewSource(7))

	// 1. One trained model shared by every node, as `selest train` would
	// produce it.
	db := vecdata.SyntheticFace(rng, 400, 4)
	wl := vecdata.GeometricWorkload(rng, db, 16, 4)
	cfg := selnet.Config{
		L: 4, EmbedDim: 4,
		AEHidden: []int{8}, AELatent: 4,
		TauHidden: []int{8}, MHidden: []int{8},
		TMax: wl.TMax, Lambda: 0.1, QueryDependentTau: true, NormEps: 1e-6,
	}
	net0 := selnet.NewNet(rng, db.Dim, cfg)
	tc := selnet.TrainConfig{Epochs: 2, Batch: 32, LR: 5e-3, HuberDelta: 1.345, LogEps: 1e-3, Seed: 1}
	cut := len(wl.Queries) * 3 / 4
	net0.Fit(tc, db, wl.Queries[:cut], wl.Queries[cut:])

	dir, err := os.MkdirTemp("", "selestd-cluster")
	check(err)
	defer os.RemoveAll(dir)
	modelPath := filepath.Join(dir, "model.gob")
	check(net0.SaveFile(modelPath))

	// 2. Three members. Each runs the full single-node stack (server,
	// registry, durable pipeline with its own journal directory) plus a
	// cluster node wired in as the server's updater and router — exactly
	// what `-cluster-self/-cluster-peers` does in cmd/selestd.
	const n = 3
	listeners := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		check(err)
		listeners[i] = ln
		peers[i] = "http://" + ln.Addr().String()
	}
	members := map[string]*member{} // base URL -> member
	for i := 0; i < n; i++ {
		srv := serve.NewServer(serve.Config{})
		pipe := ingest.New(ingest.Config{
			Registry: srv.Registry(),
			Train:    tc,
			// A huge δ_U keeps retraining out of the way: this example is
			// about replication, not model refresh.
			Update:  selnet.UpdateConfig{DeltaU: 1e18, Patience: 1, MaxEpochs: 1},
			Journal: ingest.JournalConfig{Dir: filepath.Join(dir, fmt.Sprintf("journal-%d", i))},
		})
		m, err := modelcodec.LoadFile(modelPath)
		check(err)
		_, err = srv.Registry().Publish("m", m, modelPath)
		check(err)
		check(pipe.Attach("m", m, db, wl.Queries[:cut], wl.Queries[cut:]))
		node, err := cluster.NewNode(cluster.Config{
			Self: peers[i], Peers: peers, Replicas: 3, Models: []string{"m"}, Pipe: pipe,
			Heartbeat: 50 * time.Millisecond, FailAfter: 400 * time.Millisecond,
			AckFollowers: 1, AckTimeout: 5 * time.Second,
		})
		check(err)
		srv.SetUpdater(node)
		srv.SetCluster(node)
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(listeners[i])
		members[peers[i]] = &member{url: peers[i], pipe: pipe, node: node, http: hs}
	}
	for _, m := range members {
		m.node.Start()
	}
	defer func() {
		for _, m := range members {
			m.crash()
		}
	}()

	client := &http.Client{Timeout: 5 * time.Second}

	// 3. The cluster elects a leader for the model (the consistent-hash
	// home wins the uncontested bootstrap election).
	leader, term := awaitLeader(client, peers[0], members, 0)
	fmt.Printf("leader for model %q: %s (term %d)\n", "m", leader, term)

	// 4. Acknowledged writes through the leader. With -cluster-ack 1
	// semantics, each 202 means a follower has the batch journaled too.
	var lastSeq uint64
	for i := 0; i < 5; i++ {
		lastSeq = postUpdate(client, leader, [][]float64{{float64(i), 0.1, 0.2, 0.3}})
	}
	fmt.Printf("5 updates acknowledged through the leader, last seq %d\n", lastSeq)

	// 5. A write through a follower is transparently proxied to the
	// leader: same journal, continuing sequence.
	var follower string
	for url := range members {
		if url != leader {
			follower = url
			break
		}
	}
	seq := postUpdate(client, follower, [][]float64{{99, 0.1, 0.2, 0.3}})
	fmt.Printf("proxied update via follower %s: seq %d\n", follower, seq)
	lastSeq = seq

	// 6. Reads serve from every replica.
	for url := range members {
		fmt.Printf("estimate on %s: %.2f\n", url, estimate(client, url, db.Vecs[0], wl.TMax/2))
	}

	// 7. The shard map shows placement and leadership.
	fmt.Println("shard map:", getBody(client, leader+"/v1/cluster"))

	// 8. Crash the leader. The most caught-up follower is promoted with a
	// higher term, and its journal holds every acknowledged sequence.
	fmt.Printf("crashing leader %s\n", leader)
	members[leader].crash()
	delete(members, leader)
	newLeader, newTerm := awaitLeader(client, follower, members, term)
	fmt.Printf("promoted: %s (term %d -> %d)\n", newLeader, term, newTerm)
	last, applied, _ := members[newLeader].pipe.Position("m")
	fmt.Printf("new leader journal: last=%d applied=%d (acked through %d — zero loss)\n",
		last, applied, lastSeq)

	// 9. Writes flow again.
	seq = postUpdate(client, newLeader, [][]float64{{7, 7, 7, 7}})
	fmt.Printf("post-failover update: seq %d\n", seq)
}

// awaitLeader polls the shard map until it names a live member with a
// term above prev, retrying through the election window.
func awaitLeader(client *http.Client, via string, members map[string]*member, prev uint64) (string, uint64) {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(via + "/v1/cluster")
		if err == nil {
			var sm struct {
				Models []struct {
					Leader string `json:"leader"`
					Term   uint64 `json:"term"`
				} `json:"models"`
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if json.Unmarshal(body, &sm) == nil && len(sm.Models) == 1 {
				lead, term := sm.Models[0].Leader, sm.Models[0].Term
				if _, alive := members[lead]; alive && term > prev {
					return lead, term
				}
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Fprintln(os.Stderr, "no leader elected in time")
	os.Exit(1)
	return "", 0
}

// postUpdate sends one insert batch, retrying 429/503 backpressure.
func postUpdate(client *http.Client, base string, insert [][]float64) uint64 {
	body, _ := json.Marshal(map[string]any{"insert": insert})
	for {
		resp, err := client.Post(base+"/v1/models/m/update", "application/json", bytes.NewReader(body))
		check(err)
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			fmt.Fprintf(os.Stderr, "update on %s: status %d: %s\n", base, resp.StatusCode, b)
			os.Exit(1)
		}
		var ack struct {
			Seq uint64 `json:"seq"`
		}
		check(json.Unmarshal(b, &ack))
		return ack.Seq
	}
}

func estimate(client *http.Client, base string, q []float64, t float64) float64 {
	body, _ := json.Marshal(map[string]any{"model": "m", "query": q, "t": t})
	resp, err := client.Post(base+"/v1/estimate", "application/json", bytes.NewReader(body))
	check(err)
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "estimate on %s: status %d: %s\n", base, resp.StatusCode, b)
		os.Exit(1)
	}
	var out struct {
		Estimate float64 `json:"estimate"`
	}
	check(json.Unmarshal(b, &out))
	return out.Estimate
}

func getBody(client *http.Client, url string) string {
	resp, err := client.Get(url)
	check(err)
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
