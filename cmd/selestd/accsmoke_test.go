package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"selnet/internal/modelcodec"
	"selnet/internal/partition"
	"selnet/internal/selnet"
	"selnet/internal/vecdata"
)

// accuracyDebugResponse mirrors the /debug/accuracy wire shape.
type accuracyDebugResponse struct {
	Sampler struct {
		SampleRate float64           `json:"sample_rate"`
		Sampled    uint64            `json:"sampled"`
		Dropped    uint64            `json:"dropped"`
		Oracles    map[string]uint64 `json:"oracle_methods"`
	} `json:"sampler"`
	Models map[string]struct {
		Samples uint64  `json:"samples"`
		P50     float64 `json:"qerror_p50"`
		P95     float64 `json:"qerror_p95"`
		Buckets map[string]struct {
			Count uint64 `json:"count"`
		} `json:"buckets"`
		Partitions map[string]struct {
			Count uint64 `json:"count"`
		} `json:"partitions"`
		Worst []struct {
			TraceID string  `json:"trace_id"`
			QError  float64 `json:"qerror"`
			Oracle  string  `json:"oracle"`
		} `json:"worst"`
	} `json:"models"`
	Workload map[string]struct {
		LiveSamples uint64  `json:"live_samples"`
		Divergence  float64 `json:"divergence"`
		Exceeded    uint64  `json:"exceeded"`
	} `json:"workload"`
}

// TestAccuracySmoke is the end-to-end acceptance test for the
// live-traffic accuracy layer, run against the real binary: selestd is
// started with shadow sampling on a partitioned model attached to its
// database, live estimate traffic is driven (deliberately shifted away
// from the training workload), and the test asserts that
// /debug/accuracy reports per-model q-error quantiles with threshold-
// bucket and partition breakdowns plus a worst-N list carrying trace
// IDs, that the new shadow/workload Prometheus families are exposed,
// and that /stats surfaces the workload-shift retraining advice. The
// CI `accuracy-smoke` job runs this.
func TestAccuracySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the real daemon")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "selestd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// A partitioned model gives the sampler real region attribution.
	rng := rand.New(rand.NewSource(83))
	db := vecdata.SyntheticFace(rng, 300, 4)
	wl := vecdata.GeometricWorkload(rng, db, 10, 4)
	pcfg := selnet.PartitionedConfig{
		Model: selnet.Config{
			L: 3, EmbedDim: 4, AEHidden: []int{8}, AELatent: 4,
			TauHidden: []int{8}, MHidden: []int{8},
			TMax: wl.TMax, Lambda: 0.1, QueryDependentTau: true, NormEps: 1e-6,
		},
		K: 2, Ratio: 0.2, Method: partition.CoverTree, Beta: 0.1, PretrainEpochs: 0,
	}
	m := selnet.NewPartitioned(rng, db, pcfg)
	tc := selnet.TrainConfig{Epochs: 1, Batch: 32, LR: 5e-3, HuberDelta: 1.345, LogEps: 1e-3, Seed: 1}
	cut := len(wl.Queries) * 3 / 4
	m.Fit(tc, db, wl.Queries[:cut], wl.Queries[cut:])
	modelPath := filepath.Join(dir, "model.gob")
	if err := modelcodec.SaveFile(modelPath, m); err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(dir, "data.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := vecdata.WriteCSV(f, db); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	addr := freeAddr(t)
	base := "http://" + addr
	args := []string{
		"-addr", addr,
		"-model", "m=" + modelPath,
		"-data", "m=" + csvPath,
		"-dist", "cos",
		// The acceptance rate: 1 in 10 requests shadow-scored. The
		// workload detector is set sensitive so the shifted traffic
		// below trips it, and -cache 0 keeps every request on the full
		// inference path.
		"-shadow-sample", "0.1",
		"-shadow-oracle-budget", "2000",
		"-workload-shift", "0.05",
		"-cache", "0",
		"-update-queries", "8",
	}
	daemon := startDaemon(t, bin, args, base)
	defer func() {
		daemon.Process.Signal(syscall.SIGTERM)
		daemon.Wait()
	}()
	client := &http.Client{Timeout: 10 * time.Second}

	// ~1000 live queries in batches: database points jittered far from
	// the training workload (a real shift), with thresholds spread
	// across the relative bands so multiple buckets populate.
	qrng := rand.New(rand.NewSource(84))
	bands := []float64{0.05, 0.2, 0.4, 0.8}
	for batch := 0; batch < 10; batch++ {
		queries := make([][]float64, 100)
		ts := make([]float64, 100)
		for i := range queries {
			base := db.Vecs[qrng.Intn(db.Size())]
			q := make([]float64, len(base))
			for j := range q {
				q[j] = base[j] + 0.5 + qrng.NormFloat64()*0.3 // shifted
			}
			queries[i] = q
			ts[i] = bands[i%len(bands)] * wl.TMax
		}
		body, _ := json.Marshal(map[string]any{"model": "m", "queries": queries, "ts": ts})
		resp, err := client.Post(base+"/v1/estimate/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d", batch, resp.StatusCode)
		}
	}

	// The oracle workers score asynchronously; poll until a healthy
	// number of samples landed (expect ~100 of 1000 at rate 0.1).
	var acc accuracyDebugResponse
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(base + "/debug/accuracy")
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("/debug/accuracy Content-Type %q", ct)
		}
		acc = accuracyDebugResponse{}
		if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st, ok := acc.Models["m"]; ok && st.Samples >= 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shadow scoring never populated: %+v", acc)
		}
		time.Sleep(100 * time.Millisecond)
	}

	if acc.Sampler.SampleRate != 0.1 {
		t.Fatalf("sample_rate = %v", acc.Sampler.SampleRate)
	}
	if acc.Sampler.Oracles["exact"] == 0 {
		t.Fatalf("oracle methods = %v, want exact scans on a 300-vector db", acc.Sampler.Oracles)
	}
	st := acc.Models["m"]
	if st.P50 < 1 || st.P95 < st.P50 {
		t.Fatalf("q-error quantiles malformed: p50=%v p95=%v", st.P50, st.P95)
	}
	if len(st.Buckets) < 2 {
		t.Fatalf("threshold buckets = %v, want multiple bands populated", st.Buckets)
	}
	if len(st.Partitions) == 0 {
		t.Fatalf("no partition breakdown for a partitioned model: %+v", st)
	}
	if len(st.Worst) == 0 {
		t.Fatal("worst-N list empty")
	}
	for _, w := range st.Worst {
		if len(w.TraceID) != 16 || w.TraceID == strings.Repeat("0", 16) {
			t.Fatalf("worst entry without a trace ID: %+v", w)
		}
		if w.QError < 1 {
			t.Fatalf("worst entry q-error %v < 1", w.QError)
		}
	}

	// The shifted traffic must register on the workload detector and
	// surface as retraining advice in /stats.
	wls, ok := acc.Workload["m"]
	if !ok || wls.LiveSamples == 0 {
		t.Fatalf("workload detector empty: %+v", acc.Workload)
	}
	if wls.Divergence <= 0.05 || wls.Exceeded == 0 {
		t.Fatalf("shifted workload not detected: %+v", wls)
	}
	resp, err := client.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Shadow *struct {
			Sampled uint64 `json:"sampled"`
		} `json:"shadow"`
		Ingest map[string]struct {
			WorkloadDivergence float64 `json:"workload_divergence"`
			RetrainAdvised     bool    `json:"retrain_advised"`
		} `json:"ingest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Shadow == nil || stats.Shadow.Sampled == 0 {
		t.Fatalf("/stats shadow section missing")
	}
	if ing := stats.Ingest["m"]; !ing.RetrainAdvised || ing.WorkloadDivergence <= 0.05 {
		t.Fatalf("/stats ingest advice = %+v, want retrain_advised with divergence", stats.Ingest)
	}

	// /metrics exposes the new shadow and workload families.
	resp, err = client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(raw)
	for _, want := range []string{
		"selestd_shadow_sample_rate 0.1",
		`selestd_shadow_qerror{model="m",bucket="all",quantile="p50"}`,
		`selestd_shadow_partition_qerror{model="m",partition=`,
		`selestd_shadow_samples_total{model="m"}`,
		"selestd_shadow_dropped_total",
		`selestd_shadow_oracle_truths_total{method="exact"}`,
		`selestd_workload_divergence{model="m"}`,
		`selestd_workload_shift_exceeded_total{model="m"}`,
		"selestd_workload_shift_threshold 0.05",
		`selestd_ingest_retrain_advised{model="m"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Fatalf("full /metrics payload:\n%s", metrics)
	}
}
