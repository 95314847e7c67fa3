// Shadowscoring: stand up the serving stack with live-traffic shadow
// scoring — a fraction of estimate requests is scored against a
// ground-truth oracle off the serving path — then drive in-range
// traffic followed by deliberately shifted traffic and read back what
// /debug/accuracy learned: q-error quantiles by threshold bucket and
// partition, the worst misestimates with their trace IDs, and the
// workload-shift detector tripping.
//
//	go run ./examples/shadowscoring
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"selnet/internal/ingest"
	"selnet/internal/obs"
	"selnet/internal/partition"
	"selnet/internal/selnet"
	"selnet/internal/serve"
	"selnet/internal/vecdata"
)

func main() {
	rng := rand.New(rand.NewSource(7))

	// 1. Train a small partitioned model — partitioning is what makes
	// per-region error attribution meaningful.
	db := vecdata.SyntheticFace(rng, 600, 4)
	wl := vecdata.GeometricWorkload(rng, db, 24, 4)
	pcfg := selnet.PartitionedConfig{
		Model: selnet.Config{
			L: 4, EmbedDim: 4, AEHidden: []int{8}, AELatent: 4,
			TauHidden: []int{8}, MHidden: []int{8},
			TMax: wl.TMax, Lambda: 0.1, QueryDependentTau: true, NormEps: 1e-6,
		},
		K: 2, Ratio: 0.2, Method: partition.CoverTree, Beta: 0.1,
	}
	m := selnet.NewPartitioned(rng, db, pcfg)
	tc := selnet.DefaultTrainConfig()
	tc.Epochs = 4
	cut := len(wl.Queries) * 3 / 4
	m.Fit(tc, db, wl.Queries[:cut], wl.Queries[cut:])

	// 2. Wire the accuracy layer the way cmd/selestd does with
	// -shadow-sample: a workload monitor seeded with the training
	// queries, a shadow sampler scoring every request (rate 1 here so
	// the walkthrough is deterministic; production uses ~0.1), and a
	// DBOracle over the same database (600 vectors <= budget, so every
	// truth is an exact scan).
	workload := obs.NewWorkloadMonitor(obs.WorkloadConfig{Threshold: 0.3, MinSamples: 16})
	qs := make([][]float64, len(wl.Queries))
	ts := make([]float64, len(wl.Queries))
	for i, q := range wl.Queries {
		qs[i], ts[i] = q.X, q.T
	}
	workload.SetBaseline("default", qs, ts)
	shadow := obs.NewShadow(obs.ShadowConfig{SampleRate: 1, QueueDepth: 256, Workload: workload})
	shadow.SetOracle("default", ingest.NewDBOracle(db, ingest.OracleConfig{Budget: 2000}))
	defer shadow.Close()

	srv := serve.NewServer(serve.Config{})
	defer srv.Close()
	srv.SetShadow(shadow) // before Handler(): registers /debug/accuracy
	srv.SetTracer(obs.NewTracer(obs.TracerConfig{}))
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	if _, err := srv.Registry().Publish("default", m, "in-memory"); err != nil {
		fail(err)
	}

	// 3. Phase one: traffic drawn from the training workload itself.
	fmt.Println("== phase 1: in-distribution traffic ==")
	for i := 0; i < 64; i++ {
		q := wl.Queries[i%len(wl.Queries)]
		estimate(hs.URL, q.X, q.T)
	}
	report(hs.URL)

	// 4. Phase two: the same database points, but jittered away from
	// the training region — the estimates degrade and the divergence
	// gauge climbs past the threshold.
	fmt.Println("== phase 2: shifted traffic ==")
	for i := 0; i < 128; i++ {
		base := db.Vecs[rng.Intn(db.Size())]
		q := make([]float64, len(base))
		for j := range q {
			q[j] = base[j] + 0.6 + rng.NormFloat64()*0.2
		}
		estimate(hs.URL, q, (0.1+0.8*float64(i%4)/3)*wl.TMax)
	}
	report(hs.URL)
}

func estimate(url string, x []float64, t float64) {
	body, _ := json.Marshal(map[string]any{"query": x, "t": t})
	resp, err := http.Post(url+"/v1/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		fail(err)
	}
	resp.Body.Close()
}

// report polls /debug/accuracy until the async oracle pool has caught
// up with everything offered, then prints the interesting parts.
func report(url string) {
	var acc struct {
		Sampler struct {
			Sampled uint64            `json:"sampled"`
			Dropped uint64            `json:"dropped"`
			Oracles map[string]uint64 `json:"oracle_methods"`
		} `json:"sampler"`
		Models map[string]struct {
			Samples uint64  `json:"samples"`
			P50     float64 `json:"qerror_p50"`
			P95     float64 `json:"qerror_p95"`
			Buckets map[string]struct {
				Count uint64  `json:"count"`
				P95   float64 `json:"qerror_p95"`
			} `json:"buckets"`
			Partitions map[string]struct {
				Count uint64  `json:"count"`
				P95   float64 `json:"qerror_p95"`
			} `json:"partitions"`
			Worst []struct {
				TraceID string  `json:"trace_id"`
				QError  float64 `json:"qerror"`
				T       float64 `json:"t"`
			} `json:"worst"`
		} `json:"models"`
		Workload map[string]struct {
			Divergence   float64 `json:"divergence"`
			Exceeded     uint64  `json:"exceeded"`
			ShiftAdvised bool    `json:"shift_advised"`
		} `json:"workload"`
	}
	for {
		resp, err := http.Get(url + "/debug/accuracy?limit=3")
		if err != nil {
			fail(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
			fail(err)
		}
		resp.Body.Close()
		if st := acc.Models["default"]; st.Samples >= acc.Sampler.Sampled-acc.Sampler.Dropped {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	st := acc.Models["default"]
	fmt.Printf("scored %d samples (oracle: %v), q-error p50=%.2f p95=%.2f\n",
		st.Samples, acc.Sampler.Oracles, st.P50, st.P95)
	buckets := make([]string, 0, len(st.Buckets))
	for b := range st.Buckets {
		buckets = append(buckets, b)
	}
	sort.Strings(buckets)
	for _, b := range buckets {
		fmt.Printf("  t-bucket %-7s  n=%-3d p95=%.2f\n", b, st.Buckets[b].Count, st.Buckets[b].P95)
	}
	parts := make([]string, 0, len(st.Partitions))
	for p := range st.Partitions {
		parts = append(parts, p)
	}
	sort.Strings(parts)
	for _, p := range parts {
		fmt.Printf("  partition %-4s   n=%-3d p95=%.2f\n", p, st.Partitions[p].Count, st.Partitions[p].P95)
	}
	for _, w := range st.Worst {
		fmt.Printf("  worst: q-error %.2f at t=%.3f, trace %s (join against /debug/traces)\n",
			w.QError, w.T, w.TraceID)
	}
	wls := acc.Workload["default"]
	fmt.Printf("workload divergence %.3f, exceeded %d times, shift advised: %v\n\n",
		wls.Divergence, wls.Exceeded, wls.ShiftAdvised)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
