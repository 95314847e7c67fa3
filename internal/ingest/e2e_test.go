package ingest

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"selnet/internal/serve"
	"selnet/internal/vecdata"
)

// TestHTTPUpdateShadowRetrainHotSwap is the end-to-end acceptance test
// for the ingest subsystem: an insert batch posted to the live update
// API must leave served estimates untouched while the shadow retrains,
// then change them exactly at the hot-swap (generation bump in /stats),
// with concurrent estimate traffic never blocking on — or observing — a
// partially retrained model. Run it under -race.
func TestHTTPUpdateShadowRetrainHotSwap(t *testing.T) {
	db, wl, train, valid := testData(30, 250, 4, 12)
	m := tinyModel(31, db.Dim, wl.TMax)
	// A few epochs lift the model off the all-zero ReLU plateau so the
	// pre/post-swap estimates are meaningfully comparable.
	tc := tinyTrain()
	tc.Epochs = 4
	m.Fit(tc, db, train, valid)

	srv := serve.NewServer(serve.Config{
		Cache: serve.CacheConfig{Capacity: 256},
	})
	defer srv.Close()
	if _, err := srv.Registry().Publish("m", m, "test"); err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	retraining := make(chan struct{})
	uc := forceRetrain()
	uc.MaxEpochs = 2
	pipe := New(Config{
		Registry:      srv.Registry(),
		Train:         tinyTrain(),
		Update:        uc,
		BeforeRetrain: func(string) { retraining <- struct{}{}; <-gate },
	})
	defer pipe.Close()
	if err := pipe.Attach("m", m, db.Clone(), train, valid); err != nil {
		t.Fatal(err)
	}
	srv.SetUpdater(pipe)

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	probe := append([]float64(nil), db.Vecs[0]...)
	probeT := wl.TMax / 2
	estimate := func() float64 {
		t.Helper()
		body, _ := json.Marshal(map[string]any{"model": "m", "query": probe, "t": probeT})
		resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("estimate: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate status %d", resp.StatusCode)
		}
		var out struct {
			Estimate float64 `json:"estimate"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Estimate
	}
	statsSnapshot := func() (gen uint64, applied uint64) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			Models []struct {
				Name       string `json:"name"`
				Generation uint64 `json:"generation"`
			} `json:"models"`
			Ingest map[string]struct {
				AppliedSeq uint64 `json:"applied_seq"`
			} `json:"ingest"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		for _, mi := range st.Models {
			if mi.Name == "m" {
				gen = mi.Generation
			}
		}
		return gen, st.Ingest["m"].AppliedSeq
	}

	before := estimate()

	// Concurrent estimate traffic for the whole lifetime of the update:
	// every response must be 200 and every value must match either the
	// old model or (after the swap) the new one — nothing in between.
	var (
		hammerWG  sync.WaitGroup
		seenMu    sync.Mutex
		seenVals  []float64
		stopHammr = make(chan struct{})
	)
	for g := 0; g < 4; g++ {
		hammerWG.Add(1)
		go func() {
			defer hammerWG.Done()
			for {
				select {
				case <-stopHammr:
					return
				default:
				}
				v := estimate()
				seenMu.Lock()
				seenVals = append(seenVals, v)
				seenMu.Unlock()
			}
		}()
	}

	// Post the insert batch over the live API.
	rng := rand.New(rand.NewSource(32))
	ins := make([][]float64, 40)
	for i := range ins {
		ins[i] = vecdata.SampleLike(rng, db, 0.05)
	}
	body, _ := json.Marshal(map[string]any{"insert": ins})
	resp, err := http.Post(ts.URL+"/v1/models/m/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ack struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || ack.Seq != 1 {
		t.Fatalf("update status %d ack %+v", resp.StatusCode, ack)
	}

	// The worker is frozen at the retrain gate: the batch is journaled
	// and applied to the private database, but serving must still answer
	// from the generation-1 model with unchanged estimates.
	<-retraining
	if gen, applied := statsSnapshot(); gen != 1 || applied != 0 {
		t.Fatalf("before swap: generation %d applied %d, want 1, 0", gen, applied)
	}
	if v := estimate(); v != before {
		t.Fatalf("estimate changed before the swap: %v -> %v", before, v)
	}

	// Release the shadow retrain and wait for the batch to take effect.
	close(gate)
	if !pipe.WaitApplied("m", ack.Seq) {
		t.Fatal("batch never applied")
	}
	gen, applied := statsSnapshot()
	if gen != 2 || applied != 1 {
		t.Fatalf("after swap: generation %d applied %d, want 2, 1", gen, applied)
	}
	after := estimate()
	if after == before {
		t.Fatalf("estimates did not change after retrain+swap (%v)", after)
	}
	// The served value must be exactly the swapped-in shadow's estimate.
	pub, _ := srv.Registry().Get("m")
	if want := pub.Est.Estimate(probe, probeT); math.Abs(after-want) > 1e-9 {
		t.Fatalf("served %v but shadow computes %v", after, want)
	}

	close(stopHammr)
	hammerWG.Wait()
	// Every concurrently observed value corresponds to a published model:
	// the old one before the swap or the new one after — never a blend.
	for _, v := range seenVals {
		if math.Abs(v-before) > 1e-9 && math.Abs(v-after) > 1e-9 {
			t.Fatalf("observed estimate %v matching neither generation (%v / %v)", v, before, after)
		}
	}
}
