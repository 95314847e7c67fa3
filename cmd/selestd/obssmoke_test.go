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

	"selnet/internal/selnet"
	"selnet/internal/vecdata"
)

// TestObservabilitySmoke is the end-to-end acceptance test for the
// observability layer, run against the real binary: selestd is started
// with tracing, kernel timing, the pprof debug listener and a drift
// threshold, fed estimates and an update batch, and then every surface
// is checked — X-Trace-Id on responses, /v1/buildinfo, /debug/traces
// spans carrying all pipeline stages, kernel and q-error series in
// /metrics, and the pprof endpoint. The CI `obs-smoke` job runs this.
func TestObservabilitySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the real daemon")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "selestd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	rng := rand.New(rand.NewSource(71))
	db := vecdata.SyntheticFace(rng, 300, 4)
	wl := vecdata.GeometricWorkload(rng, db, 10, 4)
	cfg := selnet.Config{
		L: 4, EmbedDim: 4,
		AEHidden: []int{8}, AELatent: 4,
		TauHidden: []int{8}, MHidden: []int{8},
		TMax: wl.TMax, Lambda: 0.1, QueryDependentTau: true, NormEps: 1e-6,
	}
	m := selnet.NewNet(rng, db.Dim, cfg)
	tc := selnet.TrainConfig{Epochs: 1, Batch: 32, LR: 5e-3, HuberDelta: 1.345, LogEps: 1e-3, Seed: 1}
	cut := len(wl.Queries) * 3 / 4
	m.Fit(tc, db, wl.Queries[:cut], wl.Queries[cut:])
	modelPath := filepath.Join(dir, "model.gob")
	if err := m.SaveFile(modelPath); err != nil {
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
	debugAddr := freeAddr(t)
	base := "http://" + addr
	args := []string{
		"-addr", addr,
		"-model", "m=" + modelPath,
		"-data", "m=" + csvPath,
		"-debug-addr", debugAddr,
		// Every span lands in the slow list, every update retrains (and
		// therefore scores drift) with one cheap epoch.
		"-trace-slow", "1us",
		"-drift-qerror", "100",
		"-delta-u", "1e18",
		"-retrain-epochs", "1",
		"-update-queries", "8",
	}
	daemon := startDaemon(t, bin, args, base)
	defer func() {
		daemon.Process.Signal(syscall.SIGTERM)
		daemon.Wait()
	}()
	client := &http.Client{Timeout: 5 * time.Second}

	// Estimates with distinct queries (cache misses) exercise the full
	// decode/cache/execute/encode pipeline; each response must carry a
	// trace ID.
	traceIDs := map[string]bool{}
	for i := 0; i < 5; i++ {
		q := append([]float64(nil), db.Vecs[i]...)
		body, _ := json.Marshal(map[string]any{"model": "m", "query": q, "t": wl.TMax / 2})
		resp, err := client.Post(base+"/v1/estimate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate %d: status %d", i, resp.StatusCode)
		}
		id := resp.Header.Get("X-Trace-Id")
		if len(id) != 16 {
			t.Fatalf("estimate %d: X-Trace-Id %q", i, id)
		}
		traceIDs[id] = true
	}
	if len(traceIDs) != 5 {
		t.Fatalf("trace ids not distinct: %v", traceIDs)
	}

	// Build info is served on its own route.
	resp, err := client.Get(base + "/v1/buildinfo")
	if err != nil {
		t.Fatal(err)
	}
	var bi struct {
		GoVersion     string  `json:"go_version"`
		GOMAXPROCS    int     `json:"gomaxprocs"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&bi); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || bi.GoVersion == "" || bi.GOMAXPROCS < 1 || bi.UptimeSeconds <= 0 {
		t.Fatalf("buildinfo: status %d payload %+v", resp.StatusCode, bi)
	}

	// One acknowledged update batch triggers an ingest cycle, whose
	// drift scoring publishes rolling q-error quantiles.
	seq, ok := postUpdate(t, client, base, [][]float64{{5, 0.1, 0.2, 0.3}, {5, 1.1, 1.2, 1.3}})
	if !ok || seq == 0 {
		t.Fatalf("update not acknowledged: seq %d ok=%v", seq, ok)
	}
	deadline := time.Now().Add(60 * time.Second)
	for getStats(t, client, base).AppliedSeq < seq {
		if time.Now().After(deadline) {
			t.Fatalf("update %d never applied", seq)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// /metrics carries the kernel-timing, per-stage and drift series.
	resp, err = client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(raw)
	for _, want := range []string{
		"selestd_kernel_timing_enabled 1",
		"selestd_kernel_seconds_total{kernel=",
		"selestd_kernel_calls_total{kernel=",
		`selestd_stage_duration_seconds_bucket{stage="execute"`,
		`selestd_stage_duration_seconds_bucket{stage="decode"`,
		"selestd_request_duration_seconds_count",
		"selestd_trace_spans_total",
		`selestd_drift_qerror{model="m",quantile="p50"}`,
		`selestd_drift_qerror{model="m",quantile="p95"}`,
		`selestd_drift_cycles_total{model="m"} 1`,
		"selestd_drift_qerror_threshold 100",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Fatalf("full /metrics payload:\n%s", metrics)
	}

	// /debug/traces returns recent spans with every pipeline stage, and
	// the 1µs slow threshold retains them in the slow list too.
	resp, err = client.Get(base + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var traces struct {
		Stats struct {
			Recorded uint64 `json:"recorded"`
		} `json:"stats"`
		Recent []struct {
			TraceID  string           `json:"trace_id"`
			Route    string           `json:"route"`
			TotalNs  int64            `json:"total_ns"`
			StagesNs map[string]int64 `json:"stages_ns"`
		} `json:"recent"`
		Slow []json.RawMessage `json:"slow"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if traces.Stats.Recorded < 5 {
		t.Fatalf("recorded %d spans, want >= 5", traces.Stats.Recorded)
	}
	if len(traces.Slow) == 0 {
		t.Fatal("slow list empty despite 1us threshold")
	}
	found := false
	for _, sp := range traces.Recent {
		if sp.Route != "/v1/estimate" || !traceIDs[sp.TraceID] {
			continue
		}
		found = true
		if sp.TotalNs <= 0 {
			t.Fatalf("span %s total_ns %d", sp.TraceID, sp.TotalNs)
		}
		for _, stage := range []string{"decode", "cache", "execute", "encode"} {
			if _, ok := sp.StagesNs[stage]; !ok {
				t.Fatalf("span %s missing stage %q: %+v", sp.TraceID, stage, sp.StagesNs)
			}
		}
		if sp.StagesNs["execute"] <= 0 {
			t.Fatalf("span %s execute stage empty: %+v", sp.TraceID, sp.StagesNs)
		}
	}
	if !found {
		t.Fatalf("no recent span matches an estimate trace id: %+v", traces.Recent)
	}

	// The pprof listener answers on the separate debug address.
	resp, err = client.Get("http://" + debugAddr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline: status %d", resp.StatusCode)
	}
}
