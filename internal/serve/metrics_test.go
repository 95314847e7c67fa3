package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// fakeUpdater satisfies Updater for endpoint tests without the full
// ingest pipeline.
type fakeUpdater struct {
	ack   UpdateAck
	err   error
	stats map[string]UpdaterStats
}

func (f *fakeUpdater) Enqueue(model string, insert, del [][]float64) (UpdateAck, error) {
	return f.ack, f.err
}
func (f *fakeUpdater) UpdaterStats() map[string]UpdaterStats { return f.stats }

func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Cache: CacheConfig{Capacity: 16}})
	if _, err := s.Registry().Publish("m", tinyNet(1, 3), "mem"); err != nil {
		t.Fatal(err)
	}
	s.SetUpdater(&fakeUpdater{stats: map[string]UpdaterStats{
		"m": {QueueDepth: 2, QueueCapacity: 8, Lag: 2, Retrained: 1},
	}})

	// Generate some traffic so the histograms are non-empty: the key is
	// admitted on its second miss, so the last two requests hit.
	for i := 0; i < 4; i++ {
		postJSON(t, ts.URL+"/v1/estimate", map[string]any{"model": "m", "query": []float64{0, 0, 0}, "t": 0.5})
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)

	for _, want := range []string{
		"# TYPE selestd_http_request_duration_seconds histogram",
		`selestd_http_request_duration_seconds_bucket{route="/v1/estimate",le="+Inf"} 4`,
		`selestd_http_request_duration_seconds_count{route="/v1/estimate"} 4`,
		"# TYPE selestd_cache_hit_ratio gauge",
		"selestd_cache_hit_ratio 0.5",
		`selestd_model_generation{model="m"} 1`,
		`selestd_batcher_requests_total{model="m"} 2`,
		`selestd_ingest_queue_depth{model="m"} 2`,
		`selestd_ingest_retrained_total{model="m"} 1`,
		"selestd_http_requests_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
	// HELP/TYPE headers must not repeat per label set.
	if n := strings.Count(body, "# TYPE selestd_http_request_duration_seconds histogram"); n != 1 {
		t.Fatalf("duration TYPE header appears %d times", n)
	}
}

func TestUpdateRouteStatuses(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if _, err := s.Registry().Publish("m", tinyNet(2, 3), "mem"); err != nil {
		t.Fatal(err)
	}

	// No updater attached: 409.
	resp, _ := postJSON(t, ts.URL+"/v1/models/m/update", map[string]any{"insert": [][]float64{{1, 2, 3}}})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("no updater: status %d", resp.StatusCode)
	}

	fu := &fakeUpdater{ack: UpdateAck{Seq: 7, QueueDepth: 1}}
	s.SetUpdater(fu)

	// Unknown model: 404 (before the updater is consulted).
	resp, _ = postJSON(t, ts.URL+"/v1/models/nope/update", map[string]any{"insert": [][]float64{{1, 2, 3}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: status %d", resp.StatusCode)
	}

	// Malformed batch (the updater validates against its database and
	// wraps ErrInvalidUpdate): 400.
	fu.err = ErrInvalidUpdate
	resp, _ = postJSON(t, ts.URL+"/v1/models/m/update", map[string]any{"insert": [][]float64{{1, 2}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad dim: status %d", resp.StatusCode)
	}
	fu.err = nil

	// Empty update: 400.
	resp, _ = postJSON(t, ts.URL+"/v1/models/m/update", map[string]any{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty: status %d", resp.StatusCode)
	}

	// Accepted: 202 with the ack echoed.
	var ack updateModelResponse
	resp, body := postJSON(t, ts.URL+"/v1/models/m/update", map[string]any{
		"insert": [][]float64{{1, 2, 3}}, "delete": [][]float64{{4, 5, 6}}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("accepted: status %d body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatalf("unmarshal ack: %v", err)
	}
	if ack.Seq != 7 || ack.QueueDepth != 1 || ack.Model != "m" {
		t.Fatalf("ack %+v", ack)
	}

	// Backpressure: 429.
	fu.err = ErrUpdateQueueFull
	resp, _ = postJSON(t, ts.URL+"/v1/models/m/update", map[string]any{"insert": [][]float64{{1, 2, 3}}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue full: status %d", resp.StatusCode)
	}

	// Not attached for updates: 409.
	fu.err = ErrNotUpdatable
	resp, _ = postJSON(t, ts.URL+"/v1/models/m/update", map[string]any{"insert": [][]float64{{1, 2, 3}}})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("not updatable: status %d", resp.StatusCode)
	}
}
