// Serving: train a small SelNet model, stand up the selestd serving
// stack in-process (registry + cache + HTTP API), and drive
// it as a client — single estimates, a batch call, a cache hit, and a
// zero-downtime hot-swap while traffic is in flight.
//
//	go run ./examples/serving
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"selnet/internal/distance"
	"selnet/internal/selnet"
	"selnet/internal/serve"
	"selnet/internal/vecdata"
)

func main() {
	rng := rand.New(rand.NewSource(1))

	// 1. Train a small model, exactly as 'selest train' would.
	db := vecdata.SyntheticFasttext(rng, 1000, 8, distance.Cosine)
	wl := vecdata.GeometricWorkload(rng, db, 40, 6)
	train, valid, _ := wl.Split(rng)
	cfg := selnet.DefaultConfig()
	cfg.TMax = wl.TMax
	tc := selnet.DefaultTrainConfig()
	tc.Epochs = 10
	net := selnet.NewNet(rng, db.Dim, cfg)
	net.Fit(tc, db, train, valid)

	dir, err := os.MkdirTemp("", "selestd-example")
	check(err)
	defer os.RemoveAll(dir)
	modelPath := filepath.Join(dir, "model.gob")
	check(net.SaveFile(modelPath))

	// 2. Start the serving stack — the same serve.Server that cmd/selestd
	// runs behind a real listener.
	srv := serve.NewServer(serve.Config{
		Cache: serve.CacheConfig{Capacity: 1024},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Printf("serving on %s\n\n", ts.URL)

	// 3. Load the model over the API.
	post(ts.URL+"/v1/models/default", map[string]string{"path": modelPath})

	// 4. Single estimate, then the identical request twice more: the
	// cache admits a key on its second miss, so the third is answered
	// from the LRU cache.
	q := db.Vecs[0]
	t := wl.TMax / 2
	for i := 0; i < 3; i++ {
		var resp struct {
			Estimate float64 `json:"estimate"`
			Cached   bool    `json:"cached"`
		}
		post(ts.URL+"/v1/estimate", map[string]any{"query": q, "t": t}, &resp)
		fmt.Printf("estimate(q, %.4f) = %.1f  (cached: %v, exact: %.0f)\n",
			t, resp.Estimate, resp.Cached, db.Selectivity(q, t))
	}

	// 5. Batch endpoint: many queries in one tensor pass.
	var bresp struct {
		Estimates []float64 `json:"estimates"`
	}
	post(ts.URL+"/v1/estimate/batch", map[string]any{
		"queries": db.Vecs[:4], "t": t,
	}, &bresp)
	fmt.Printf("batch of 4: %.1f\n\n", bresp.Estimates)

	// 6. Hot-swap the model while 8 clients hammer the server; no request
	// fails or waits for the swap.
	fmt.Println("hot-swapping under load...")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var served int64
	var mu sync.Mutex
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			grng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				qi := grng.Intn(db.Size())
				post(ts.URL+"/v1/estimate", map[string]any{
					"query": db.Vecs[qi], "t": grng.Float64() * wl.TMax,
				})
				mu.Lock()
				served++
				mu.Unlock()
			}
		}(g)
	}
	for i := 0; i < 5; i++ {
		post(ts.URL+"/v1/models/default", map[string]string{"path": modelPath})
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// 7. A concurrent burst against the final model: each single-query
	// request runs its estimate on its own handler goroutine. (Each swap
	// installs a fresh Batcher, so its counter covers the burst plus the
	// load that outlived the last swap.)
	var burst sync.WaitGroup
	for g := 0; g < 8; g++ {
		burst.Add(1)
		go func(g int) {
			defer burst.Done()
			grng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 25; i++ {
				qi := grng.Intn(db.Size())
				post(ts.URL+"/v1/estimate", map[string]any{
					"query": db.Vecs[qi], "t": grng.Float64() * wl.TMax,
				})
			}
		}(g)
	}
	burst.Wait()
	var stats struct {
		Requests uint64 `json:"requests"`
		Cache    struct {
			Hits, Misses uint64
		} `json:"cache"`
		Models []struct {
			Generation uint64 `json:"generation"`
			Batcher    *struct {
				Requests uint64 `json:"requests"`
			} `json:"batcher"`
		} `json:"models"`
	}
	get(ts.URL+"/stats", &stats)
	m := stats.Models[0]
	fmt.Printf("served %d estimates across %d swaps (model generation %d)\n",
		served, 5, m.Generation)
	fmt.Printf("final generation's Batcher: %d single estimates (burst of 200 included)\n",
		m.Batcher.Requests)
	fmt.Printf("cache: %d hits / %d misses\n", stats.Cache.Hits, stats.Cache.Misses)
}

// post sends body as JSON and decodes the response into out[0] if given.
func post(url string, body any, out ...any) {
	raw, err := json.Marshal(body)
	check(err)
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	check(err)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		check(fmt.Errorf("POST %s: %d %s", url, resp.StatusCode, e.Error))
	}
	if len(out) > 0 {
		check(json.NewDecoder(resp.Body).Decode(out[0]))
	}
}

func get(url string, out any) {
	resp, err := http.Get(url)
	check(err)
	defer resp.Body.Close()
	check(json.NewDecoder(resp.Body).Decode(out))
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
