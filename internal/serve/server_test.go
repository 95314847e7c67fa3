package serve

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"selnet/internal/kde"
	"selnet/internal/modelcodec"
	"selnet/internal/obs"
	"selnet/internal/selnet"
)

// tinyNet builds a small untrained SelNet — inference speed and shape
// correctness do not depend on training quality.
func tinyNet(seed int64, dim int) *selnet.Net {
	cfg := selnet.Config{
		L: 4, EmbedDim: 4,
		AEHidden: []int{8}, AELatent: 4,
		TauHidden: []int{8}, MHidden: []int{8},
		TMax: 1, Lambda: 0.1, QueryDependentTau: true, NormEps: 1e-6,
	}
	return selnet.NewNet(rand.New(rand.NewSource(seed)), dim, cfg)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// TestAccessLogLinePerRequest checks the structured access log: one
// request writes one line, carrying the trace ID the response echoes.
func TestAccessLogLinePerRequest(t *testing.T) {
	var buf bytes.Buffer
	s := NewServer(Config{})
	s.SetAccessLog(slog.New(slog.NewJSONHandler(&buf, nil)))
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	resp, _ := postJSON(t, ts.URL+"/v1/estimate", estimateRequest{Model: "absent", Query: []float64{1}, T: 0.1})
	id := resp.Header.Get("X-Trace-Id")
	if resp.StatusCode != http.StatusNotFound || len(id) != 16 {
		t.Fatalf("status %d, X-Trace-Id %q", resp.StatusCode, id)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("%d access-log lines, want 1:\n%s", len(lines), buf.String())
	}
	var rec struct {
		Level, Msg, Method, Path string
		TraceID                  string `json:"trace_id"`
		Status                   int
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Msg != "request" || rec.Level != "WARN" || rec.TraceID != id ||
		rec.Method != "POST" || rec.Path != "/v1/estimate" || rec.Status != http.StatusNotFound {
		t.Fatalf("access-log line %+v, want a WARN POST /v1/estimate 404 with trace %s", rec, id)
	}
}

func TestServerEndToEnd(t *testing.T) {
	const dim = 4
	s, ts := newTestServer(t, Config{
		Cache: CacheConfig{Capacity: 64},
	})

	// healthz before any model.
	var health struct {
		Status string `json:"status"`
		Models int    `json:"models"`
	}
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if health.Status != "ok" || health.Models != 0 {
		t.Fatalf("healthz = %+v", health)
	}
	var bi obs.BuildInfo
	if resp := getJSON(t, ts.URL+"/v1/buildinfo", &bi); resp.StatusCode != 200 {
		t.Fatalf("buildinfo status %d", resp.StatusCode)
	}
	if bi.GoVersion == "" || bi.GOMAXPROCS != runtime.GOMAXPROCS(0) || bi.UptimeSeconds < 0 {
		t.Fatalf("buildinfo = %+v", bi)
	}

	// Load a model from disk through the API.
	net := tinyNet(1, dim)
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := net.SaveFile(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/models/default", loadModelRequest{Path: path})
	if resp.StatusCode != 200 {
		t.Fatalf("load model: %d %s", resp.StatusCode, body)
	}

	var list struct {
		Models []modelInfo `json:"models"`
	}
	getJSON(t, ts.URL+"/v1/models", &list)
	if len(list.Models) != 1 || list.Models[0].Name != "default" ||
		list.Models[0].Dim != dim || list.Models[0].Generation != 1 {
		t.Fatalf("models = %+v", list.Models)
	}

	// Single estimate matches direct inference.
	q := []float64{0.1, 0.2, 0.3, 0.4}
	var est estimateResponse
	resp, body = postJSON(t, ts.URL+"/v1/estimate", estimateRequest{Model: "default", Query: q, T: 0.25})
	if resp.StatusCode != 200 {
		t.Fatalf("estimate: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &est); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if want := net.Estimate(q, 0.25); est.Estimate != want || est.Cached {
		t.Fatalf("estimate = %+v, want value %v uncached", est, want)
	}

	// The cache admits a key on its second miss, so the first repeat
	// still runs the model and the second is a hit with the same answer.
	m, _ := s.Registry().Get("default")
	for i, wantCached := range []bool{false, true} {
		_, body = postJSON(t, ts.URL+"/v1/estimate", estimateRequest{Model: "default", Query: q, T: 0.25})
		if err := json.Unmarshal(body, &est); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if want := m.Est.Estimate(q, 0.25); est.Cached != wantCached || est.Estimate != want {
			t.Fatalf("repeat %d = %+v, want cached=%v and value %v", i+1, est, wantCached, want)
		}
	}

	// Batch with per-query thresholds, and with a broadcast threshold.
	queries := [][]float64{{0.1, 0.2, 0.3, 0.4}, {0.4, 0.3, 0.2, 0.1}}
	var bresp estimateBatchResponse
	_, body = postJSON(t, ts.URL+"/v1/estimate/batch",
		estimateBatchRequest{Model: "default", Queries: queries, Ts: []float64{0.2, 0.3}})
	if err := json.Unmarshal(body, &bresp); err != nil {
		t.Fatalf("unmarshal batch: %v (%s)", err, body)
	}
	if len(bresp.Estimates) != 2 {
		t.Fatalf("batch estimates = %v", bresp.Estimates)
	}
	if want := net.Estimate(queries[1], 0.3); bresp.Estimates[1] != want {
		t.Fatalf("batch[1] = %v, want %v", bresp.Estimates[1], want)
	}
	bt := 0.5
	resp, body = postJSON(t, ts.URL+"/v1/estimate/batch",
		estimateBatchRequest{Model: "default", Queries: queries, T: &bt})
	if resp.StatusCode != 200 {
		t.Fatalf("broadcast batch: %d %s", resp.StatusCode, body)
	}

	// Default model name resolution: empty model falls back to "default".
	resp, _ = postJSON(t, ts.URL+"/v1/estimate", estimateRequest{Query: q, T: 0.25})
	if resp.StatusCode != 200 {
		t.Fatalf("default-name estimate: %d", resp.StatusCode)
	}

	// Stats reflect the traffic.
	var stats statsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Requests == 0 || len(stats.Models) != 1 || stats.Cache.Hits == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Models[0].Batcher == nil || stats.Models[0].Batcher.Requests == 0 {
		t.Fatalf("batcher stats missing: %+v", stats.Models[0])
	}
}

func TestServerErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{Cache: CacheConfig{Capacity: 4}})

	net := tinyNet(1, 3)
	path := filepath.Join(t.TempDir(), "m.gob")
	if err := net.SaveFile(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/models/m", loadModelRequest{Path: path}); resp.StatusCode != 200 {
		t.Fatalf("load: %d %s", resp.StatusCode, body)
	}

	check := func(name string, status int, resp *http.Response, body []byte) {
		t.Helper()
		if resp.StatusCode != status {
			t.Errorf("%s: status %d, want %d (%s)", name, resp.StatusCode, status, body)
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error.Message == "" {
			t.Errorf("%s: error body %q", name, body)
		}
		if e.Error.Code == "" {
			t.Errorf("%s: missing error code in %q", name, body)
		}
	}

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	check("malformed json", 400, resp, buf.Bytes())

	// Unknown model.
	r2, b2 := postJSON(t, ts.URL+"/v1/estimate", estimateRequest{Model: "nope", Query: []float64{1, 2, 3}, T: 0.1})
	check("unknown model", 404, r2, b2)

	// Wrong dimension.
	r3, b3 := postJSON(t, ts.URL+"/v1/estimate", estimateRequest{Model: "m", Query: []float64{1, 2}, T: 0.1})
	check("wrong dim", 400, r3, b3)

	// Empty query.
	r4, b4 := postJSON(t, ts.URL+"/v1/estimate", estimateRequest{Model: "m", T: 0.1})
	check("empty query", 400, r4, b4)

	// Batch: mismatched thresholds.
	r5, b5 := postJSON(t, ts.URL+"/v1/estimate/batch",
		estimateBatchRequest{Model: "m", Queries: [][]float64{{1, 2, 3}}, Ts: []float64{0.1, 0.2}})
	check("ts mismatch", 400, r5, b5)

	// Batch: both t and ts.
	bt := 0.1
	r6, b6 := postJSON(t, ts.URL+"/v1/estimate/batch",
		estimateBatchRequest{Model: "m", Queries: [][]float64{{1, 2, 3}}, Ts: []float64{0.1}, T: &bt})
	check("t and ts", 400, r6, b6)

	// Batch: ragged query dims.
	r7, b7 := postJSON(t, ts.URL+"/v1/estimate/batch",
		estimateBatchRequest{Model: "m", Queries: [][]float64{{1, 2, 3}, {1, 2}}, Ts: []float64{0.1, 0.2}})
	check("ragged dims", 400, r7, b7)

	// Load: missing path, bad path, empty body.
	r8, b8 := postJSON(t, ts.URL+"/v1/models/x", loadModelRequest{})
	check("missing path", 400, r8, b8)
	r9, b9 := postJSON(t, ts.URL+"/v1/models/x", loadModelRequest{Path: "/does/not/exist.gob"})
	check("bad path", 400, r9, b9)
}

// A request body is one JSON value: data after it is a 400, not
// silently dropped, while trailing whitespace is fine.
func TestServerRejectsTrailingData(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if _, err := s.Registry().Publish("m", tinyNet(1, 2), "mem"); err != nil {
		t.Fatal(err)
	}
	post := func(route, body string) (int, errorResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+route, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		defer resp.Body.Close()
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e
	}
	for _, tc := range []struct{ route, body string }{
		{"/v1/estimate", `{"model":"m","query":[1,2],"t":0.5} {"t":99}`},
		{"/v1/estimate", `{"model":"m","query":[1,2],"t":0.5}]`},
		{"/v1/estimate/batch", `{"model":"m","queries":[[1,2]],"t":0.5} {"t":99}`},
		{"/v1/estimate/batch", `{"model":"m","queries":[[1,2]],"t":0.5}x`},
	} {
		if status, e := post(tc.route, tc.body); status != http.StatusBadRequest || e.Error.Code != "invalid_argument" {
			t.Errorf("%s %s: status %d code %q, want 400 invalid_argument", tc.route, tc.body, status, e.Error.Code)
		}
	}
	for _, tc := range []struct{ route, body string }{
		{"/v1/estimate", "{\"model\":\"m\",\"query\":[1,2],\"t\":0.5}\n \t\r\n"},
		{"/v1/estimate/batch", "{\"model\":\"m\",\"queries\":[[1,2]],\"t\":0.5}\n"},
	} {
		if status, _ := post(tc.route, tc.body); status != http.StatusOK {
			t.Errorf("%s %q: status %d, want 200", tc.route, tc.body, status)
		}
	}
}

// TestServerHotSwapUnderLoad hammers /v1/estimate while repeatedly
// hot-swapping the model underneath; every request must succeed against
// either the old or the new weights. Run with -race.
func TestServerHotSwapUnderLoad(t *testing.T) {
	const dim = 4
	s, ts := newTestServer(t, Config{
		// Cache disabled so every request exercises inference + batcher.
		Cache: CacheConfig{Capacity: 0},
	})

	dir := t.TempDir()
	paths := make([]string, 2)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("m%d.gob", i))
		if err := tinyNet(int64(i+1), dim).SaveFile(paths[i]); err != nil {
			t.Fatalf("save: %v", err)
		}
	}
	if resp, body := postJSON(t, ts.URL+"/v1/models/hot", loadModelRequest{Path: paths[0]}); resp.StatusCode != 200 {
		t.Fatalf("initial load: %d %s", resp.StatusCode, body)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	client := ts.Client()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := make([]float64, dim)
				for j := range q {
					q[j] = rng.Float64()
				}
				raw, _ := json.Marshal(estimateRequest{Model: "hot", Query: q, T: rng.Float64()})
				resp, err := client.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Errorf("goroutine %d req %d: %v", g, i, err)
					return
				}
				var er estimateResponse
				err = json.NewDecoder(resp.Body).Decode(&er)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 200 {
					t.Errorf("goroutine %d req %d: status %d err %v", g, i, resp.StatusCode, err)
					return
				}
				if er.Estimate < 0 {
					t.Errorf("negative estimate %v", er.Estimate)
					return
				}
			}
		}(g)
	}

	// Swap back and forth while the hammer runs.
	swaps := 30
	if testing.Short() {
		swaps = 8
	}
	for i := 0; i < swaps; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/models/hot", loadModelRequest{Path: paths[i%2]})
		if resp.StatusCode != 200 {
			t.Fatalf("swap %d: %d %s", i, resp.StatusCode, body)
		}
	}
	close(stop)
	wg.Wait()

	m, ok := s.Registry().Get("hot")
	if !ok || m.Generation != uint64(swaps)+1 {
		t.Fatalf("final generation = %+v, want %d", m, swaps+1)
	}
}

// TestServerEstimateFallsBackWhenBatcherClosed pins the hot-swap race:
// a handler that resolved a model just before it was swapped out finds
// the batcher closed, and must answer inline instead of returning 503.
func TestServerEstimateFallsBackWhenBatcherClosed(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	net := tinyNet(1, 3)
	path := filepath.Join(t.TempDir(), "m.gob")
	if err := net.SaveFile(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/models/m", loadModelRequest{Path: path}); resp.StatusCode != 200 {
		t.Fatalf("load: %d %s", resp.StatusCode, body)
	}
	// Simulate the swap landing between lookup and Submit by closing the
	// live model's batcher directly.
	m, _ := s.Registry().Get("m")
	m.Batcher().Close()

	q := []float64{0.1, 0.2, 0.3}
	resp, body := postJSON(t, ts.URL+"/v1/estimate", estimateRequest{Model: "m", Query: q, T: 0.2})
	if resp.StatusCode != 200 {
		t.Fatalf("estimate after batcher close: %d %s", resp.StatusCode, body)
	}
	var er estimateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if want := net.Estimate(q, 0.2); er.Estimate != want {
		t.Fatalf("fallback estimate = %v, want %v", er.Estimate, want)
	}
}

// infScaleKDE writes a KDE model file whose Scale is +Inf, so every
// estimate it answers is non-finite. The blob mirrors kde's gob wire
// form; gob matches fields by name.
func infScaleKDE(t *testing.T) string {
	t.Helper()
	var raw bytes.Buffer
	if err := gob.NewEncoder(&raw).Encode(struct {
		Dist, Dim, N int
		Samples      [][]float64
		Bandwidth    []float64
		Scale, TMax  float64
	}{Dim: 2, N: 1, Samples: [][]float64{{0, 0}}, Bandwidth: []float64{1}, Scale: math.Inf(1), TMax: 1}); err != nil {
		t.Fatal(err)
	}
	est, err := kde.Load(&raw)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "inf.gob")
	if err := modelcodec.SaveFile(path, est); err != nil {
		t.Fatal(err)
	}
	return path
}

// A response that cannot be encoded (here a non-finite estimate) is a
// 500 in the error envelope, not a 200 with an empty body.
func TestServerNonFiniteEstimateIs500(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, body := postJSON(t, ts.URL+"/v1/models/default", loadModelRequest{Path: infScaleKDE(t)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("load: %d %s", resp.StatusCode, body)
	}
	for _, tc := range []struct {
		route string
		body  any
	}{
		{"/v1/estimate", estimateRequest{Query: []float64{0, 0}, T: 0.5}},
		{"/v1/estimate/batch", estimateBatchRequest{Queries: [][]float64{{0, 0}, {1, 1}}, Ts: []float64{0.5, 1}}},
	} {
		resp, body := postJSON(t, ts.URL+tc.route, tc.body)
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || resp.StatusCode != http.StatusInternalServerError || e.Error.Code != "internal" {
			t.Errorf("%s: %d %q, want 500 with code internal", tc.route, resp.StatusCode, body)
		}
	}
}
