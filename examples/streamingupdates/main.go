// Streaming updates over the live serving API (paper Sec. 5.4 behind
// POST /v1/models/{name}/update): a trained model is served by the full
// selestd stack while a stream of insert/delete batches is POSTed at it.
// Each batch is journaled, coalesced, applied to the pipeline's private
// database, and judged by the δ_U trigger on a shadow clone; when the
// trigger fires, the shadow retrains incrementally and is hot-swapped
// into the registry — visible below as the generation bumping while
// estimate traffic keeps flowing. The demo then freezes the retrain
// worker and overflows the journal to show 429 backpressure, and ends
// by crashing the whole stack with acknowledged batches still pending
// and recovering it from the durable journal (the selestd -journal-dir
// path): every 202-acknowledged batch replays, none is lost.
//
//	go run ./examples/streamingupdates
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"

	"selnet/internal/ingest"
	"selnet/internal/selnet"
	"selnet/internal/serve"
	"selnet/internal/vecdata"
)

func main() {
	rng := rand.New(rand.NewSource(21))

	// The durable journal directory shared by the serving stack and, after
	// the simulated crash, its replacement.
	journalDir, err := os.MkdirTemp("", "selestd-journal-")
	check(err)
	defer os.RemoveAll(journalDir)

	// 1. Train a model, exactly as 'selest train' would.
	db := vecdata.SyntheticFace(rng, 1200, 12)
	wl := vecdata.GeometricWorkload(rng, db, 60, 6)
	cut := len(wl.Queries) * 4 / 5
	train, valid := wl.Queries[:cut], wl.Queries[cut:]
	cfg := selnet.DefaultConfig()
	cfg.TMax = wl.TMax
	tc := selnet.DefaultTrainConfig()
	tc.Epochs = 25
	net := selnet.NewNet(rng, db.Dim, cfg)
	fmt.Println("initial training...")
	net.Fit(tc, db, train, valid)
	fmt.Printf("initial validation MAE: %.3f\n\n", net.MAE(valid))

	// 2. Stand up the serving stack with the ingest pipeline attached —
	// the same wiring as 'selestd -model ... -data ... -journal-dir ...'.
	// No defers on this stack: the demo crashes it on purpose below.
	srv := serve.NewServer(serve.Config{
		Cache: serve.CacheConfig{Capacity: 1024},
	})
	if _, err := srv.Registry().Publish("default", net, "in-memory"); err != nil {
		panic(err)
	}

	gate := make(chan struct{})
	hold := false
	pipe := ingest.New(ingest.Config{
		Registry:   srv.Registry(),
		QueueDepth: 4,
		Train:      tc,
		Update:     selnet.UpdateConfig{DeltaU: 0.15, Patience: 3, MaxEpochs: 8},
		Journal:    ingest.JournalConfig{Dir: journalDir},
		BeforeRetrain: func(string) {
			if hold {
				<-gate // frozen by the backpressure and crash demos below
			}
		},
	})
	check(pipe.Attach("default", net, db.Clone(), train, valid))
	srv.SetUpdater(pipe)
	ts := httptest.NewServer(srv.Handler())
	fmt.Printf("serving on %s (journal in %s)\n\n", ts.URL, journalDir)

	// 3. Stream update operations through the HTTP API. Waiting for each
	// batch keeps the printed table deterministic; real clients would
	// just keep posting and let the journal coalesce.
	probe := append([]float64(nil), db.Vecs[0]...)
	probeT := wl.TMax / 3
	ops := vecdata.UpdateStream(rng, 10, 120, func(r *rand.Rand) []float64 {
		return vecdata.SampleLike(r, db, 0.05)
	})
	fmt.Println("op  kind    size  status  retrained  epochs   val-MAE  gen  estimate(probe)")
	for i, op := range ops {
		kind, size := "insert", len(op.Insert)
		payload := map[string]any{"insert": op.Insert}
		if size == 0 {
			kind, size = "delete", op.Delete
			// Delete by value over the API: sample from the original
			// snapshot — vectors a previous op already removed are simply
			// ignored by the pipeline, which is the point of value-matched
			// deletes.
			del := make([][]float64, op.Delete)
			for j := range del {
				del[j] = append([]float64(nil), db.Vecs[rng.Intn(len(db.Vecs))]...)
			}
			payload = map[string]any{"delete": del}
		}
		var ack struct {
			Seq uint64 `json:"seq"`
		}
		status := post(ts.URL+"/v1/models/default/update", payload, &ack)
		pipe.WaitApplied("default", ack.Seq)
		st := pipe.UpdaterStats()["default"]
		gen, _ := srv.Registry().Get("default")
		est := estimate(ts.URL, probe, probeT)
		fmt.Printf("%2d  %-6s %5d  %6d  %9d  %6d  %8.3f  %3d  %14.1f\n",
			i+1, kind, size, status, st.Retrained, st.LastEpochs, st.LastMAEAfter, gen.Generation, est)
	}

	// 4. Backpressure: freeze the retrain worker and overflow the
	// 4-deep journal; the API answers 429 until the queue drains.
	fmt.Println("\nfreezing the retrain worker and flooding the update queue...")
	hold = true
	vec := [][]float64{vecdata.SampleLike(rng, db, 0.05)}
	var last struct {
		Seq uint64 `json:"seq"`
	}
	statuses := []int{}
	for i := 0; i < 7; i++ {
		var ack struct {
			Seq uint64 `json:"seq"`
		}
		s := post(ts.URL+"/v1/models/default/update", map[string]any{"insert": vec}, &ack)
		if ack.Seq > last.Seq {
			last.Seq = ack.Seq
		}
		statuses = append(statuses, s)
	}
	fmt.Printf("statuses while frozen: %v (202 accepted, 429 journal full)\n", statuses)
	hold = false
	close(gate)
	pipe.WaitApplied("default", last.Seq)
	st := pipe.UpdaterStats()["default"]
	fmt.Printf("after drain: applied_seq=%d lag=%d retrained=%d skipped=%d journaled=%d\n",
		st.AppliedSeq, st.Lag, st.Retrained, st.Skipped, st.JournaledBatches)

	// 5. Kill and recover. Freeze the worker again so freshly accepted
	// batches cannot be applied, acknowledge a few more inserts (each 202
	// was fsynced to the journal before the response), then "crash": the
	// whole serving stack is abandoned without any drain — exactly what a
	// SIGKILL leaves behind. A new stack over the same journal directory
	// must replay every acknowledged batch.
	fmt.Println("\nfreezing the worker and crashing with acknowledged batches pending...")
	gate2 := make(chan struct{})
	gate = gate2 // never closed: the old worker stays wedged, like a dead process
	hold = true
	crashSeqs := []uint64{}
	for i := 0; i < 3; i++ {
		var ack struct {
			Seq uint64 `json:"seq"`
		}
		s := post(ts.URL+"/v1/models/default/update", map[string]any{"insert": vec}, &ack)
		if s == http.StatusAccepted {
			crashSeqs = append(crashSeqs, ack.Seq)
		}
	}
	ts.Close() // the "crash": no pipe.Close, no drain, journal left as-is
	fmt.Printf("crashed with acked-but-unapplied seqs %v\n\n", crashSeqs)

	// 6. Recovery, as selestd does on boot with -journal-dir: a fresh
	// stack, the pristine database reloaded, and Attach replaying the
	// journal's surviving records through the normal δ_U pipeline.
	srv2 := serve.NewServer(serve.Config{
		Cache: serve.CacheConfig{Capacity: 1024},
	})
	defer srv2.Close()
	if _, err := srv2.Registry().Publish("default", net, "in-memory"); err != nil {
		panic(err)
	}
	pipe2 := ingest.New(ingest.Config{
		Registry: srv2.Registry(),
		Train:    tc,
		Update:   selnet.UpdateConfig{DeltaU: 0.15, Patience: 3, MaxEpochs: 8},
		Journal: ingest.JournalConfig{
			Dir: journalDir,
			OnRecover: func(model string, r ingest.Recovery) {
				fmt.Printf("recovery %q: snapshot seq %d (model restored=%v), %d entries to replay\n",
					model, r.SnapshotSeq, r.RestoredModel, r.Replayed)
			},
		},
	})
	defer pipe2.Close()
	check(pipe2.Attach("default", net, db.Clone(), cloneQueries(train), cloneQueries(valid)))
	srv2.SetUpdater(pipe2)
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	lastAcked := crashSeqs[len(crashSeqs)-1]
	pipe2.WaitApplied("default", lastAcked)
	st2 := pipe2.UpdaterStats()["default"]
	gen2, _ := srv2.Registry().Get("default")
	fmt.Printf("after replay: applied_seq=%d (>= last acked %d), replayed=%d, gen=%d, estimate(probe)=%.1f\n",
		st2.AppliedSeq, lastAcked, st2.ReplayedBatches, gen2.Generation, estimate(ts2.URL, probe, probeT))

	fmt.Println("\nminor updates are absorbed without retraining (delta_U); larger label")
	fmt.Println("shifts retrain a shadow copy off the serving path and hot-swap it in;")
	fmt.Println("and with a journal directory, a 202 means the batch survives a crash.")
}

// cloneQueries deep-copies a labelled query set: the recovered pipeline
// relabels in place, and the crashed stack's wedged worker still holds
// the originals.
func cloneQueries(qs []vecdata.Query) []vecdata.Query {
	out := make([]vecdata.Query, len(qs))
	copy(out, qs)
	return out
}

func estimate(base string, q []float64, t float64) float64 {
	var out struct {
		Estimate float64 `json:"estimate"`
	}
	post(base+"/v1/estimate", map[string]any{"model": "default", "query": q, "t": t}, &out)
	return out.Estimate
}

func post(url string, body any, out any) int {
	raw, err := json.Marshal(body)
	check(err)
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	check(err)
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		check(json.NewDecoder(resp.Body).Decode(out))
	}
	return resp.StatusCode
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
