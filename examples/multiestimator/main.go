// Multiestimator: serve three different estimator kinds — KDE, LSH
// sampling, and SelNet — side by side behind one selestd API, then let
// the workload router pick per query. Every kind round-trips through
// the kind-tagged model codec, loads over HTTP, and answers the same
// batched estimate path; requests naming "auto" are routed by the VC
// sampling bound, and an ensemble router blends all three in log space.
//
//	go run ./examples/multiestimator
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

	"selnet/internal/distance"
	"selnet/internal/kde"
	"selnet/internal/lshsampling"
	"selnet/internal/modelcodec"
	"selnet/internal/selnet"
	"selnet/internal/serve"
	"selnet/internal/vecdata"
)

func main() {
	rng := rand.New(rand.NewSource(1))

	// 1. One dataset, three estimators. A 1.5k-vector cosine database is
	// small enough that sampling-backed estimators carry cheap ε-δ
	// guarantees — exactly the regime the router exploits.
	db := vecdata.SyntheticFasttext(rng, 1500, 6, distance.Cosine)
	wl := vecdata.GeometricWorkload(rng, db, 60, 6)
	train, valid, _ := wl.Split(rng)

	fmt.Println("fitting three estimator kinds on the same database...")
	k := kde.FitTuned(rng, db, kde.DefaultConfig(), valid)
	lsh, err := lshsampling.Build(rng, db, lshsampling.DefaultConfig())
	check(err)
	scfg := selnet.DefaultConfig()
	scfg.TMax = wl.TMax
	tc := selnet.DefaultTrainConfig()
	tc.Epochs = 8
	net := selnet.NewNet(rng, db.Dim, scfg)
	net.Fit(tc, db, train, valid)

	// 2. The kind-tagged codec serializes all of them; the daemon (and
	// POST /v1/models) sniffs the kind back out of the file.
	dir, err := os.MkdirTemp("", "multiestimator")
	check(err)
	defer os.RemoveAll(dir)
	paths := map[string]string{}
	for name, est := range map[string]modelcodec.Estimator{
		"kde": k, "lsh": lsh, "selnet": net,
	} {
		paths[name] = filepath.Join(dir, name+".gob")
		check(modelcodec.SaveFile(paths[name], est))
	}

	// 3. Serve all three, with an auto-mode workload router for the
	// virtual names ("default", "auto") — cmd/selestd wires exactly this
	// with -router auto.
	srv := serve.NewServer(serve.Config{
		Cache: serve.CacheConfig{Capacity: 1024},
	})
	defer srv.Close()
	srv.SetRouter(serve.NewRouter(srv.Registry(), serve.RouterConfig{Mode: "auto"}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for name, path := range paths {
		post(ts.URL+"/v1/models/"+name, map[string]string{"path": path})
	}

	// 4. Side by side: the same query through each kind.
	q := db.Vecs[7]
	t := wl.TMax / 2
	fmt.Printf("\nquery #7 at t=%.4f (exact selectivity %.0f):\n", t, db.Selectivity(q, t))
	for _, name := range []string{"kde", "lsh", "selnet", "auto"} {
		var resp struct {
			Estimate float64 `json:"estimate"`
		}
		post(ts.URL+"/v1/estimate", map[string]any{"model": name, "query": q, "t": t}, &resp)
		fmt.Printf("  %-7s -> %8.1f\n", name, resp.Estimate)
	}

	// 5. Why did "auto" pick what it picked? The router section of
	// /stats holds the cached assignment and the decision counters; the
	// VC bound m* = (d+1+ln(1/δ))/(2ε²) says how small a database must
	// be for a sampling estimator to already be an (ε,δ)-approximation.
	rt := srv.Router()
	fmt.Printf("\nVC sampling bound m*(dim=%d) = %d vectors; database holds %d\n",
		db.Dim, rt.SampleBound(db.Dim), db.Size())
	var stats struct {
		Router *serve.RouterStats `json:"router"`
	}
	get(ts.URL+"/stats", &stats)
	for _, a := range stats.Router.Assignments {
		fmt.Printf("router: dim=%d -> %s (%s)\n", a.Dim, a.Backend, a.Reason)
	}
	for _, d := range stats.Router.Decisions {
		fmt.Printf("router: %d request(s) naming %q served by %q\n", d.Count, d.Model, d.Backend)
	}

	// 6. The model listing names each kind and its router assignment —
	// 'selest models -addr ...' prints this same response as a table.
	var list struct {
		Models []struct {
			Name   string   `json:"name"`
			Kind   string   `json:"kind"`
			Router []string `json:"router"`
		} `json:"models"`
	}
	get(ts.URL+"/v1/models", &list)
	fmt.Println()
	for _, m := range list.Models {
		fmt.Printf("model %-7s kind=%-7s router=%v\n", m.Name, m.Kind, m.Router)
	}

	// 7. Ensemble mode fans one query across every dimension-compatible
	// model and blends in log space (geometric mean) — robust when no
	// single estimator dominates.
	ens := serve.NewRouter(srv.Registry(), serve.RouterConfig{Mode: "ensemble"})
	m, err := ens.Route("auto", db.Dim)
	check(err)
	fmt.Printf("\nensemble(%s) -> %.1f (geometric mean of all three)\n",
		m.Name, m.Est.Estimate(q, t))
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
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		check(fmt.Errorf("POST %s: %d %s (%s)", url, resp.StatusCode, e.Error.Message, e.Error.Code))
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
