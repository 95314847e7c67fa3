package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"selnet/internal/distance"
	"selnet/internal/infer"
	"selnet/internal/ingest"
	"selnet/internal/modelcodec"
	"selnet/internal/obs"
	"selnet/internal/selnet"
	"selnet/internal/serve"
	"selnet/internal/tensor"
	"selnet/internal/vecdata"
)

// The traced run's second half: the serving and update stacks are
// rebuilt in this process from their public constructors, with the
// daemon's default settings, and every call into a layer is wrapped in
// a span. Nothing inside the layers is instrumented; a layer's cost is
// what its public entry point costs a caller. The numbers are medians
// over the spans of one name.

// daemonServe is selestd's default serving configuration.
var daemonServe = serve.Config{
	Batcher: serve.BatcherConfig{MaxBatch: 32, FlushInterval: 2 * time.Millisecond},
	Cache:   serve.CacheConfig{Capacity: 4096, Quantum: 1e-6},
}

// daemonUpdate is update_mixed's -delta-u/-retrain-* flags.
var daemonUpdate = selnet.UpdateConfig{DeltaU: -1, Patience: 3, MaxEpochs: 3}

func daemonTrain() selnet.TrainConfig {
	tc := selnet.DefaultTrainConfig()
	tc.AEPretrainEpochs = 0 // as cmd/selestd: retraining continues from current weights
	return tc
}

// newStack is the daemon's serving stack without the listener.
func newStack(traced bool, model string, est serve.Estimator) (*serve.Server, error) {
	srv := serve.NewServer(daemonServe)
	if traced {
		srv.SetTracer(obs.NewTracer(obs.TracerConfig{SlowThreshold: 100 * time.Millisecond}))
	}
	srv.SetDrift(obs.NewDriftMonitor(obs.DriftConfig{}))
	if _, err := srv.Registry().Publish(model, est, "selbench"); err != nil {
		return nil, err
	}
	return srv, nil
}

type layerTrace struct {
	cfg config
	w   *workload
	fx  *fixtures
	tr  *recorder
	rec *record

	ct   *selnet.Net
	part *selnet.Partitioned
	// points and scans are request streams of both shapes; the one that
	// matches the workload's route is the workload's own.
	points, scans *stream
	spanBias      float64 // ns every span's length carries: one clock read
}

// traceLayers times every layer named in metrics.go and writes the
// spans to trace-<workload>.json.
func traceLayers(cfg config, w *workload, fx *fixtures, st *stream, rec *record) error {
	infer.SetKernelTiming(true) // selestd's -kernel-timing default
	defer infer.SetKernelTiming(false)

	lt := &layerTrace{cfg: cfg, w: w, fx: fx, tr: newRecorder(), rec: rec}
	ctEst, err := modelcodec.LoadFile(fx.ctPath)
	if err != nil {
		return err
	}
	partEst, err := modelcodec.LoadFile(fx.partPath)
	if err != nil {
		return err
	}
	lt.ct, lt.part = ctEst.(*selnet.Net), partEst.(*selnet.Partitioned)
	lt.points, lt.scans = st, st
	if w.path == "/v1/estimate" {
		lt.scans = &stream{reqs: []request{scanRequest(fx, streamRNG(cfg.seed, "trace/scan"), "part")}, order: []int32{0}}
	} else {
		lt.points = distinctPoints(fx, streamRNG(cfg.seed, "trace/points"), "ct")
	}

	for _, stage := range []func() error{
		lt.spanCost, lt.setUp, lt.replays, lt.coalescerFanIn, lt.publish, lt.tracerOverhead,
		lt.inference, lt.gemm, lt.wal, lt.pipeline, lt.retrainParts,
	} {
		if err := stage(); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	return lt.tr.write(filepath.Join(cfg.out, "trace-"+w.name+".json"))
}

// med is the median length of the spans named name, in unit (a
// time.Duration such as time.Microsecond). Nanosecond-scale metrics
// have the span's own bias taken off.
func (lt *layerTrace) med(span string, unit time.Duration) float64 {
	d := lt.tr.durations(span)
	lt.rec.Counts[span] = len(d)
	ns := median(d)
	if unit == time.Nanosecond {
		ns -= lt.spanBias
	}
	return ns / float64(unit)
}

// spanCost measures the recorder itself: the length an empty span
// reports.
func (lt *layerTrace) spanCost() error {
	for i := 0; i < 5000; i++ {
		lt.tr.end(lt.tr.begin("driver.span", -1, i))
	}
	lt.spanBias = median(lt.tr.durations("driver.span"))
	lt.rec.set("driver.span_ns", lt.spanBias)
	return nil
}

// setUp times what the daemon does between exec and its first answer.
// (Attach is timed in pipeline, where it is needed anyway.)
func (lt *layerTrace) setUp() error {
	first := &lt.points.reqs[0]
	var err error
	for i := 0; i < 3 && err == nil; i++ {
		var est serve.Estimator
		lt.tr.time("modelcodec.load", -1, i, func() { est, err = modelcodec.LoadFile(lt.fx.modelPath(lt.w.model)) })
		if err == nil {
			lt.tr.time("selnet.first_estimate", -1, i, func() { est.Estimate(first.xs[0], first.ts[0]) })
		}
	}
	for i := 0; i < 2 && err == nil; i++ {
		lt.tr.time("vecdata.read_csv", -1, i, func() { _, err = vecdata.ReadCSVFile(lt.fx.csvPath, distance.Euclidean) })
	}
	lt.rec.set("modelcodec.load_ms", lt.med("modelcodec.load", time.Millisecond))
	lt.rec.set("selnet.first_estimate_ms", lt.med("selnet.first_estimate", time.Millisecond))
	lt.rec.set("vecdata.read_csv_ms", lt.med("vecdata.read_csv", time.Millisecond))
	return err
}

// replays pushes the first inputs of the workload through the handler,
// and a shorter run of the other request shape so that every serving
// layer has spans whatever the workload.
func (lt *layerTrace) replays() error {
	window := time.Duration(lt.cfg.seconds * float64(time.Second))
	point, scan := window/12, window/12
	if lt.w.path == "/v1/estimate" {
		point = window / 5
	} else {
		scan = window / 5
	}
	if err := lt.replay("/v1/estimate", lt.points, "ct", lt.ct, point); err != nil {
		return err
	}
	if err := lt.replay("/v1/estimate/batch", lt.scans, "part", lt.part, scan); err != nil {
		return err
	}
	us := time.Microsecond
	lt.rec.set("serve.cache.key_ns", lt.med("serve.cache.key", time.Nanosecond))
	lt.rec.set("serve.cache.get_ns", lt.med("serve.cache.get", time.Nanosecond))
	lt.rec.set("serve.cache.put_ns", lt.med("serve.cache.put", time.Nanosecond))
	lt.rec.set("serve.batcher.submit_us", lt.med("serve.batcher.submit", us))
	lt.rec.set("serve.batcher.queue_us", lt.med("serve.batcher.queue", us))
	lt.rec.set("serve.batcher.fuse_us", lt.med("serve.batcher.fuse", us))
	lt.rec.set("serve.batcher.execute_us", lt.med("serve.batcher.execute", us))
	lt.rec.set("selnet.estimate_batch_us", lt.med("selnet.estimate_batch", us))
	return nil
}

const maxReplayed = 2000

// replay sends up to maxReplayed requests of s through an in-process
// server's handler, one span each, and after each request repeats the
// calls the handler made into the cache, the coalescer and the model on
// stand-alone instances in the same state, as child spans. The
// handler's self time is its span minus those children: JSON, mux,
// middleware and span bookkeeping.
//
// On the cached route a handler span is a hit or a miss, two costs a
// factor of thirty apart, so those spans are named by class and
// serve.handler_* is taken over the class the daemon's median request
// belonged to: hits when the daemon's windows had a hit ratio above one
// half, misses otherwise.
func (lt *layerTrace) replay(route string, s *stream, model string, est serve.Estimator, budget time.Duration) error {
	srv, err := newStack(true, model, est)
	if err != nil {
		return err
	}
	defer srv.Close()
	handler := srv.Handler()
	cache := serve.NewCache(daemonServe.Cache)
	batcher := serve.NewBatcher(est, daemonServe.Batcher)
	defer batcher.Close()
	published := &serve.Model{Name: model, Est: est, Generation: 1}
	into := est.(serve.BatchIntoEstimator)

	// The stream's cache fill goes through the handler and into the
	// stand-alone cache first, as it goes to every daemon before its
	// window (measure).
	for _, i := range s.fill {
		req := &s.reqs[i]
		rw := httptest.NewRecorder()
		handler.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(req.body)))
		if rw.Code != http.StatusOK {
			return fmt.Errorf("in-process %s: cache fill: status %d: %.200s", route, rw.Code, rw.Body.Bytes())
		}
		cache.Put(cache.Key(published, req.xs[0], req.ts[0]), est.Estimate(req.xs[0], req.ts[0]))
	}

	own := route == lt.w.path
	name := "serve.handler"
	if !own {
		name = "serve.handler.other_route"
	}
	medianClass := "" // the batch route has one class
	if route == "/v1/estimate" {
		medianClass = ".miss"
		if lt.rec.Metrics["serve.cache.hit_ratio"].Value > 0.5 {
			medianClass = ".hit"
		}
	}
	const allocSamples = 400
	var mallocs, bytesAlloc []float64
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	for i := 0; i < maxReplayed && time.Since(start) < budget; i++ {
		req := s.at(i)
		hr := httptest.NewRequest(http.MethodPost, route, bytes.NewReader(req.body))
		rw := httptest.NewRecorder()
		sampleAllocs := own && i < allocSamples
		if sampleAllocs {
			runtime.ReadMemStats(&ms0)
		}
		h := lt.tr.time(name, -1, i, func() { handler.ServeHTTP(rw, hr) })
		if sampleAllocs {
			runtime.ReadMemStats(&ms1)
		}
		if rw.Code != http.StatusOK {
			return fmt.Errorf("in-process %s: status %d: %.200s", route, rw.Code, rw.Body.Bytes())
		}

		class := ""
		if len(req.ts) > 1 {
			x := tensor.New(len(req.xs), est.Dim())
			for r, row := range req.xs {
				copy(x.Row(r), row)
			}
			out := make([]float64, len(req.ts))
			lt.tr.time("selnet.estimate_batch", h, i, func() { into.EstimateBatchInto(out, x, req.ts) })
		} else {
			hit, err := lt.replayPoint(cache, batcher, published, req, h, i)
			if err != nil {
				return err
			}
			class = ".miss"
			if hit {
				class = ".hit"
			}
			lt.tr.spans[h].Name += class
		}
		if sampleAllocs && class == medianClass {
			mallocs = append(mallocs, float64(ms1.Mallocs-ms0.Mallocs))
			bytesAlloc = append(bytesAlloc, float64(ms1.TotalAlloc-ms0.TotalAlloc))
		}
	}
	if own {
		if len(mallocs) == 0 {
			return fmt.Errorf("in-process %s: none of the replayed requests was a %s%s, the daemon's median request", route, name, medianClass)
		}
		lt.rec.set("serve.handler_us", lt.med(name+medianClass, time.Microsecond))
		lt.rec.set("serve.handler_self_us", median(lt.tr.selfTimes(name+medianClass))/1e3)
		lt.rec.set("serve.handler_allocs", median(mallocs))
		lt.rec.set("serve.handler_bytes", median(bytesAlloc))
	}
	return nil
}

// replayPoint repeats, under the handler span h, what the handler did
// for one single estimate: key, lookup and, on a miss, coalescer and
// insert. It reports whether the request was a cache hit.
func (lt *layerTrace) replayPoint(cache *serve.Cache, batcher *serve.Batcher, published *serve.Model, req *request, h, i int) (hit bool, err error) {
	x, t := req.xs[0], req.ts[0]
	var key string
	lt.tr.time("serve.cache.key", h, i, func() { key = cache.Key(published, x, t) })
	lt.tr.time("serve.cache.get", h, i, func() { _, hit = cache.Get(key) })
	if hit {
		return true, nil
	}
	var v float64
	var bt serve.BatchTiming
	sub := lt.tr.time("serve.batcher.submit", h, i, func() { v, bt, err = batcher.SubmitTimed(context.Background(), x, t) })
	if err != nil {
		return false, err
	}
	lt.tr.add("serve.batcher.queue", sub, 0, bt.Queue)
	lt.tr.add("serve.batcher.fuse", sub, bt.Queue, bt.Fuse)
	lt.tr.add("serve.batcher.execute", sub, bt.Queue+bt.Fuse, bt.Execute)
	lt.tr.time("serve.cache.put", h, i, func() { cache.Put(key, v) })
	return false, nil
}

// coalescerFanIn is the row for the record of the regime no end-to-end
// workload reaches on two cores: eight concurrent submitters, where
// requests fuse instead of lingering.
func (lt *layerTrace) coalescerFanIn() error {
	batcher := serve.NewBatcher(lt.ct, daemonServe.Batcher)
	defer batcher.Close()
	const submitters = 8
	type timed struct {
		at time.Time
		d  time.Duration
	}
	got := make([][]timed, submitters)
	var firstErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(300 * time.Millisecond)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; time.Now().Before(deadline); i += submitters {
				req := lt.points.at(i)
				t0 := time.Now()
				_, err := batcher.Submit(context.Background(), req.xs[0], req.ts[0])
				got[g] = append(got[g], timed{t0, time.Since(t0)})
				if err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	for g := range got {
		for _, t := range got[g] {
			lt.tr.addAt("serve.batcher.submit8", g, t.at, t.d)
		}
	}
	lt.rec.set("serve.batcher.submit8_us", lt.med("serve.batcher.submit8", time.Microsecond))
	return nil
}

// publish times a hot-swap over a live model: what the ingest worker
// pays at the end of every retrain cycle.
func (lt *layerTrace) publish() error {
	srv, err := newStack(true, "ct", lt.ct)
	if err != nil {
		return err
	}
	defer srv.Close()
	for i := 0; i < 20 && err == nil; i++ {
		next := lt.ct.Clone()
		lt.tr.time("serve.registry.publish", -1, i, func() { _, err = srv.Registry().Publish("ct", next, "selbench") })
	}
	lt.rec.set("serve.registry.publish_us", lt.med("serve.registry.publish", time.Microsecond))
	return err
}

// tracerOverhead compares the handler with and without a tracer on the
// cheapest path there is, a cache hit, where the tracer's share is
// largest and the coalescer's timer does not drown it. The two servers
// take turns in blocks so that drift hits both alike.
func (lt *layerTrace) tracerOverhead() error {
	body := lt.points.reqs[0].body
	names := [2]string{"serve.handler.hit.untraced", "serve.handler.hit.traced"}
	var handlers [2]http.Handler
	for i, traced := range []bool{false, true} {
		srv, err := newStack(traced, "ct", lt.ct)
		if err != nil {
			return err
		}
		defer srv.Close()
		handlers[i] = srv.Handler()
		// The miss that fills the cache.
		handlers[i].ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body)))
	}
	for block := 0; block < 20; block++ {
		for side, h := range handlers {
			for i := 0; i < 100; i++ {
				hr := httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body))
				rw := httptest.NewRecorder()
				lt.tr.time(names[side], -1, block*100+i, func() { h.ServeHTTP(rw, hr) })
			}
		}
	}
	lt.rec.set("serve.tracer_overhead_us", lt.med(names[1], time.Microsecond)-lt.med(names[0], time.Microsecond))
	return nil
}

var sink float64 // keeps timed calls from being optimised away

// inference times the model's own entry points.
func (lt *layerTrace) inference() error {
	var ms0, ms1 runtime.MemStats
	for i := 0; i < maxReplayed; i++ {
		req := lt.points.at(i)
		lt.tr.time("selnet.estimate", -1, i, func() { sink = lt.ct.Estimate(req.xs[0], req.ts[0]) })
		lt.tr.time("partition.route", -1, i, func() { sink = float64(lt.part.PartitionOf(req.xs[0], req.ts[0])) })
	}
	runtime.ReadMemStats(&ms0)
	for i := 0; i < 1000; i++ {
		req := lt.points.at(i)
		sink = lt.ct.Estimate(req.xs[0], req.ts[0])
	}
	runtime.ReadMemStats(&ms1)
	lt.rec.set("selnet.estimate_us", lt.med("selnet.estimate", time.Microsecond))
	lt.rec.set("selnet.estimate_allocs", float64(ms1.Mallocs-ms0.Mallocs)/1000)
	lt.rec.set("partition.route_ns", lt.med("partition.route", time.Nanosecond))

	// Kernel timing on against off, in alternating blocks so drift hits
	// both sides alike.
	for block := 0; block < 10; block++ {
		for _, on := range []bool{true, false} {
			infer.SetKernelTiming(on)
			name := "selnet.estimate.untimed"
			if on {
				name = "selnet.estimate.timed"
			}
			for i := 0; i < 200; i++ {
				req := lt.points.at(block*200 + i)
				lt.tr.time(name, -1, i, func() { sink = lt.ct.Estimate(req.xs[0], req.ts[0]) })
			}
		}
	}
	infer.SetKernelTiming(true)
	lt.rec.set("infer.kernel_timing_overhead_ns",
		median(lt.tr.durations("selnet.estimate.timed"))-median(lt.tr.durations("selnet.estimate.untimed")))
	return nil
}

// layerShapes lists the (k, n) of every matrix product in one forward
// pass of the single model: autoencoder encoder, tau generator, and
// Model M's encoder, the last two fed the enhanced input [x; z].
func layerShapes(cfg selnet.Config, dim int) [][2]int {
	var shapes [][2]int
	chain := func(in int, hidden []int, out int) {
		for _, h := range append(append([]int(nil), hidden...), out) {
			shapes = append(shapes, [2]int{in, h})
			in = h
		}
	}
	chain(dim, cfg.AEHidden, cfg.AELatent)
	chain(dim+cfg.AELatent, cfg.TauHidden, cfg.L+1)
	chain(dim+cfg.AELatent, cfg.MHidden, (cfg.L+2)*cfg.EmbedDim)
	return shapes
}

// gemm times the packed GEMM at the model's layer shapes, one row and
// 256 rows. Flops are computed from the shapes (2*m*k*n), not counted.
func (lt *layerTrace) gemm() error {
	rng := rand.New(rand.NewSource(1))
	fill := func(rows, cols int) *tensor.Dense {
		d := tensor.New(rows, cols)
		for i := range d.Data() {
			d.Data()[i] = rng.NormFloat64()
		}
		return d
	}
	perRow := map[int]float64{} // batch -> summed median ns per forward pass
	var flops256 float64
	for _, batch := range []int{1, 256} {
		reps := 300
		if batch > 1 {
			reps = 20
		}
		for _, kn := range layerShapes(selnet.DefaultConfig(), fxDim) {
			a, out := fill(batch, kn[0]), tensor.New(batch, kn[1])
			var pb *tensor.PackedB
			b := fill(kn[0], kn[1])
			lt.tr.time("tensor.pack_b", -1, batch, func() { pb = tensor.PackB(b) })
			name := fmt.Sprintf("tensor.gemm.b%d.%dx%d", batch, kn[0], kn[1])
			for i := 0; i < reps; i++ {
				lt.tr.time(name, -1, i, func() { tensor.GemmPacked(out, a, pb, nil, tensor.EpNone) })
			}
			perRow[batch] += median(lt.tr.durations(name))
			if batch == 256 {
				flops256 += 2 * float64(batch) * float64(kn[0]) * float64(kn[1])
			}
		}
	}
	lt.rec.set("tensor.gemm_us_per_estimate", perRow[1]/1e3)
	lt.rec.set("tensor.gemm_b256_us_per_estimate", perRow[256]/1e3/256)
	lt.rec.set("tensor.gemm_gflops", flops256/perRow[256])
	return nil
}

func (lt *layerTrace) updates(n int) []updateBatch {
	return updateBatches(lt.fx.db, streamRNG(lt.cfg.seed, "trace/updates"), n)
}

// wal times the journal alone: buffer one record, then make it durable.
// The fsync is this machine's disk.
func (lt *layerTrace) wal() error {
	dir, err := os.MkdirTemp("", "selbench-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, _, err := ingest.OpenWAL(filepath.Join(dir, "ct.wal"), "ct")
	if err != nil {
		return err
	}
	defer w.Close()
	for i, b := range lt.updates(24) {
		e := ingest.Entry{Seq: uint64(i + 1), At: time.Now(), Insert: b.insert, Delete: b.del}
		lt.tr.time("ingest.wal.append", -1, i, func() { err = w.Append(e) })
		if err == nil {
			lt.tr.time("ingest.wal.sync", -1, i, func() { err = w.Sync() })
		}
		if err != nil {
			return err
		}
	}
	lt.rec.set("ingest.wal.append_us", lt.med("ingest.wal.append", time.Microsecond))
	lt.rec.set("ingest.wal.sync_ms", lt.med("ingest.wal.sync", time.Millisecond))
	return nil
}

// attachSets generates the labelled train and validation queries the
// way cmd/selestd does for -update-queries 128.
func attachSets(db *vecdata.Database) (train, valid []vecdata.Query) {
	wl := vecdata.GeometricWorkload(rand.New(rand.NewSource(1)), db, 128, 4)
	cut := len(wl.Queries) * 3 / 4
	return wl.Queries[:cut], wl.Queries[cut:]
}

// pipeline runs the real ingest pipeline with a durable journal:
// attach, then one enqueue and one full cycle at a time.
func (lt *layerTrace) pipeline() error {
	dir, err := os.MkdirTemp("", "selbench-pipeline-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	model := lt.ct.Clone()
	srv, err := newStack(true, "ct", model)
	if err != nil {
		return err
	}
	defer srv.Close()
	var mu sync.Mutex
	var cycles []ingest.Cycle
	var ended []time.Time
	pipe := ingest.New(ingest.Config{
		Registry: srv.Registry(), Train: daemonTrain(), Update: daemonUpdate,
		Journal: ingest.JournalConfig{Dir: dir},
		OnCycle: func(_ string, c ingest.Cycle) {
			mu.Lock()
			cycles = append(cycles, c)
			ended = append(ended, time.Now())
			mu.Unlock()
		},
	})
	defer pipe.Close()
	db := lt.fx.db.Clone()
	var train, valid []vecdata.Query
	lt.tr.time("vecdata.geometric_workload", -1, 0, func() { train, valid = attachSets(db) })
	lt.tr.time("ingest.attach", -1, 0, func() { err = pipe.Attach("ct", model, db, train, valid) })
	if err != nil {
		return err
	}
	for i, b := range lt.updates(4) {
		var ack serve.UpdateAck
		lt.tr.time("ingest.enqueue", -1, i, func() { ack, err = pipe.Enqueue("ct", b.insert, b.del) })
		if err != nil {
			return err
		}
		if !pipe.WaitApplied("ct", ack.Seq) {
			return fmt.Errorf("in-process pipeline closed before seq %d applied", ack.Seq)
		}
	}
	pipe.Close() // the last cycle's OnCycle has run once Close returns
	mu.Lock()
	defer mu.Unlock()
	for i, c := range cycles {
		if c.Err != nil {
			return fmt.Errorf("in-process ingest cycle: %w", c.Err)
		}
		lt.tr.addAt("ingest.cycle", i, ended[i].Add(-c.Duration), c.Duration)
	}
	lt.rec.set("vecdata.geometric_workload_ms", lt.med("vecdata.geometric_workload", time.Millisecond))
	lt.rec.set("ingest.attach_ms", lt.med("ingest.attach", time.Millisecond))
	lt.rec.set("ingest.enqueue_ms", lt.med("ingest.enqueue", time.Millisecond))
	lt.rec.set("ingest.cycle_ms", lt.med("ingest.cycle", time.Millisecond))
	return nil
}

// retrainParts times the pieces a retrain cycle is made of, each on its
// own, at the sizes the daemon uses them.
func (lt *layerTrace) retrainParts() error {
	db := lt.fx.db.Clone()
	train, valid := attachSets(db)
	for i, b := range lt.updates(10) {
		lt.tr.time("vecdata.apply", -1, i, func() { applyToMirror(db, &b) })
	}
	both := append(append([]vecdata.Query(nil), train...), valid...)
	for i := 0; i < 3; i++ {
		lt.tr.time("vecdata.relabel", -1, i, func() { vecdata.Relabel(both, db) })
	}
	for i := 0; i < 5; i++ {
		lt.tr.time("selnet.clone", -1, i, func() { lt.ct.Clone() })
		lt.tr.time("selnet.mae", -1, i, func() { sink = lt.ct.MAE(valid) })
	}
	tc := daemonTrain()
	var ms0, ms1 runtime.MemStats
	var epochAllocs []float64
	for i := 0; i < 3; i++ {
		shadow := lt.ct.Clone()
		runtime.ReadMemStats(&ms0)
		lt.tr.time("selnet.fit_epoch", -1, i, func() { shadow.FitEpochsUntilNoImprovement(tc, train, valid, 1, 1) })
		runtime.ReadMemStats(&ms1)
		epochAllocs = append(epochAllocs, float64(ms1.Mallocs-ms0.Mallocs))
	}
	for i := 0; i < 2; i++ {
		shadow := lt.ct.Clone()
		lt.tr.time("selnet.handle_update", -1, i, func() { shadow.HandleUpdate(tc, daemonUpdate, db, train, valid) })
	}
	ms := time.Millisecond
	lt.rec.set("vecdata.apply_ms", lt.med("vecdata.apply", ms))
	lt.rec.set("vecdata.relabel_ms", lt.med("vecdata.relabel", ms))
	lt.rec.set("selnet.clone_ms", lt.med("selnet.clone", ms))
	lt.rec.set("selnet.mae_ms", lt.med("selnet.mae", ms))
	lt.rec.set("selnet.fit_epoch_ms", lt.med("selnet.fit_epoch", ms))
	lt.rec.set("selnet.fit_epoch_allocs", median(epochAllocs))
	lt.rec.set("selnet.handle_update_ms", lt.med("selnet.handle_update", ms))
	return nil
}
