// Package selnet_bench regenerates every table and figure of the paper's
// evaluation section as Go benchmarks. Each benchmark runs one experiment
// at QuickConfig scale and reports the paper's headline quantity as a
// custom metric, so `go test -bench=.` both exercises the full pipeline
// and prints the reproduced numbers. cmd/benchrunner runs the same
// experiments at FullConfig scale with complete table output.
package selnet_bench

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"selnet/internal/distance"
	"selnet/internal/experiments"
	"selnet/internal/ingest"
	"selnet/internal/obs"
	"selnet/internal/selnet"
	"selnet/internal/serve"
	"selnet/internal/vecdata"
)

func quick() experiments.Config { return experiments.QuickConfig() }

// reportErrors attaches the SelNet row's errors as benchmark metrics.
func reportSelNetRow(b *testing.B, t experiments.AccuracyTable) {
	b.Helper()
	for _, r := range t.Rows {
		if r.Model == "SelNet" {
			b.ReportMetric(r.Test.MSE, "selnet-mse")
			b.ReportMetric(r.Test.MAE, "selnet-mae")
			b.ReportMetric(r.Test.MAPE, "selnet-mape")
		}
	}
}

func BenchmarkTable1AccuracyFasttextCos(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.RunAccuracyTable(quick(), "fasttext-cos")
		reportSelNetRow(b, t)
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkTable2AccuracyFasttextL2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.RunAccuracyTable(quick(), "fasttext-l2")
		reportSelNetRow(b, t)
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkTable3AccuracyFaceCos(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.RunAccuracyTable(quick(), "face-cos")
		reportSelNetRow(b, t)
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkTable4AccuracyYouTubeCos(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.RunAccuracyTable(quick(), "youtube-cos")
		reportSelNetRow(b, t)
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkTable5Monotonicity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.RunMonotonicityTable(quick())
		for _, s := range t.Scores {
			if s.Model == "SelNet" {
				b.ReportMetric(s.Score, "selnet-mono-%")
			}
		}
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkTable6Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.RunAblationTable(quick())
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkTable7EstimationTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.RunTimingTable(quick())
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkTable8ControlPoints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.RunControlPointSweep(quick())
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkTable9PartitionSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.RunPartitionSizeSweep(quick())
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkTable10PartitionMethods(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.RunPartitionMethodTable(quick())
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkTable11BetaThresholds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.RunBetaWorkloadTable(quick())
		reportSelNetRow(b, t)
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFigure3CurveFit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure3(quick())
		b.ReportMetric(r.PWLRMSE, "pwl-rmse")
		b.ReportMetric(r.DLNRMSE, "dln-rmse")
		if i == 0 {
			b.Log("\n" + r.String())
		}
	}
}

func BenchmarkFigure4ControlPoints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure4(quick())
		if i == 0 {
			b.Log("\n" + r.String())
		}
	}
}

func BenchmarkFigure5Updates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFigure5(quick(), "face-cos")
		if n := len(r.Points); n > 0 {
			b.ReportMetric(r.Points[n-1].MAPE, "final-mape")
		}
		if i == 0 {
			b.Log("\n" + r.String())
		}
	}
}

// Design-choice ablations called out in DESIGN.md.

func BenchmarkAblationNorml2VsSoftmax(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.RunTauTransformAblation(quick())
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkAblationLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.RunLossAblation(quick())
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkAblationTraining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.RunTrainingModeAblation(quick())
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

// Per-model estimation micro-benchmarks (the Table 7 measurement at
// testing.B granularity).

func BenchmarkEstimateSelNet(b *testing.B)   { benchEstimate(b, "SelNet") }
func BenchmarkEstimateSelNetCT(b *testing.B) { benchEstimate(b, "SelNet-ct") }
func BenchmarkEstimateKDE(b *testing.B)      { benchEstimate(b, "KDE") }
func BenchmarkEstimateLSH(b *testing.B)      { benchEstimate(b, "LSH") }
func BenchmarkEstimateGBM(b *testing.B)      { benchEstimate(b, "LightGBM") }
func BenchmarkEstimateDNN(b *testing.B)      { benchEstimate(b, "DNN") }
func BenchmarkEstimateUMNN(b *testing.B)     { benchEstimate(b, "UMNN") }
func BenchmarkEstimateDLN(b *testing.B)      { benchEstimate(b, "DLN") }

// Serving-path benchmarks: single estimates through the selestd
// per-model Batcher against direct Estimate calls, at >= 8 concurrent
// clients.

func servingNet() *selnet.Net {
	cfg := selnet.DefaultConfig()
	cfg.TMax = 1
	// Weights are random: estimation cost is independent of training.
	return selnet.NewNet(rand.New(rand.NewSource(1)), 16, cfg)
}

func servingQueries(n, dim int) [][]float64 {
	rng := rand.New(rand.NewSource(2))
	qs := make([][]float64, n)
	for i := range qs {
		qs[i] = make([]float64, dim)
		for j := range qs[i] {
			qs[i][j] = rng.Float64()
		}
	}
	return qs
}

// setClients makes RunParallel use at least n goroutines.
func setClients(b *testing.B, n int) {
	procs := runtime.GOMAXPROCS(0)
	p := n / procs
	if p*procs < n {
		p++
	}
	b.SetParallelism(p)
}

// BenchmarkBatcherSubmitParallel and BenchmarkNetEstimateParallel run
// single estimates from 8 concurrent clients, through a model's
// serve.Batcher and by calling the model's Estimate directly. Every
// Submit runs on its caller's goroutine, so the two agree within noise:
// the difference is the Batcher's admission gate, request counter and
// timing.
func BenchmarkBatcherSubmitParallel(b *testing.B) {
	net := servingNet()
	batcher := serve.NewBatcher(net, serve.BatcherConfig{})
	defer batcher.Close()
	queries := servingQueries(256, net.Dim())
	setClients(b, 8)
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			q := queries[i%len(queries)]
			if _, err := batcher.Submit(ctx, q, 0.5); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

func BenchmarkNetEstimateParallel(b *testing.B) {
	net := servingNet()
	queries := servingQueries(256, net.Dim())
	setClients(b, 8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			net.Estimate(queries[i%len(queries)], 0.5)
			i++
		}
	})
}

// BenchmarkServeEstimateBatch drives the in-process /v1/estimate/batch
// handler, decode to encode, with 256-row bodies shaped like selbench's
// batch_scan (64 dims): "ladder" sends 32 vectors at 8 thresholds each,
// so 7 of every 8 rows repeat the previous row's text; "distinct" sends
// 256 different vectors, which no decoder shortcut applies to.
func BenchmarkServeEstimateBatch(b *testing.B) {
	const dim, rows = 64, 256
	srv := serve.NewServer(serve.Config{})
	defer srv.Close()
	cfg := selnet.DefaultConfig()
	cfg.TMax = 1
	net := selnet.NewNet(rand.New(rand.NewSource(1)), dim, cfg)
	if _, err := srv.Registry().Publish("m", net, "mem"); err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	for _, bc := range []struct {
		name  string
		steps int
	}{{"ladder", 8}, {"distinct", 1}} {
		vecs := servingQueries(rows/bc.steps, dim)
		req := struct {
			Model   string      `json:"model"`
			Queries [][]float64 `json:"queries"`
			Ts      []float64   `json:"ts"`
		}{Model: "m"}
		for _, q := range vecs {
			for k := 0; k < bc.steps; k++ {
				req.Queries = append(req.Queries, q)
				req.Ts = append(req.Ts, float64(k+1)/float64(bc.steps))
			}
		}
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for b.Loop() {
				rw := httptest.NewRecorder()
				h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/estimate/batch", bytes.NewReader(body)))
				if rw.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rw.Code, rw.Body)
				}
			}
		})
	}
}

// BenchmarkServeShadowSampled times the shadow-scoring tap on the
// serving path: the loop is the inference hot path (compiled plan
// Estimate) plus the Offer tap at a 10% sample rate, while the oracle
// worker scores the sampled queries concurrently against an exact
// ground-truth scan. TestShadowSampledServeZeroAllocs in
// internal/ingest pins the same loop, tap and scoring pipeline
// (sampler, oracle, rolling aggregates, worst-N), at 0 allocations.
func BenchmarkServeShadowSampled(b *testing.B) {
	net := servingNet()
	queries := servingQueries(256, net.Dim())
	rng := rand.New(rand.NewSource(3))
	db := vecdata.SyntheticFasttext(rng, 500, net.Dim(), distance.Euclidean)
	sh := obs.NewShadow(obs.ShadowConfig{SampleRate: 0.1, QueueDepth: 1024})
	sh.SetOracle("bench", ingest.NewDBOracle(db, ingest.OracleConfig{}))
	defer sh.Close()

	// Warm up until the model's rolling rings exist, the worst-N list is
	// at capacity, and the plan pool is primed — allocations after this
	// point are regressions.
	for id := uint64(1); ; id++ {
		q := queries[int(id)%len(queries)]
		v := net.Estimate(q, 0.5)
		sh.Offer("bench", id, 0, q, 0.5, 1, v)
		if st, ok := sh.Accuracy().ModelStats("bench", 0); ok && st.Samples >= 64 {
			break
		}
		if id%1024 == 0 {
			time.Sleep(time.Millisecond) // let the worker drain
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		v := net.Estimate(q, 0.5)
		sh.Offer("bench", uint64(i+1), 0, q, 0.5, 1, v)
	}
	b.StopTimer()
	st := sh.Stats()
	b.ReportMetric(float64(st.Sampled), "sampled")
	b.ReportMetric(float64(st.Dropped), "dropped")
}

// BenchmarkIngestRetrainSwap measures the end-to-end update-to-visible
// latency of the ingest subsystem: one insert batch journaled through
// the pipeline, applied to the private database, shadow-retrained
// (δ_U forced to fire, capped incremental epochs), and hot-swapped into
// the registry. ns/op is the full journal->apply->retrain->swap cycle;
// the retrain dominates, so this is the number future PRs should drive
// down (cheaper relabelling, fewer epochs, faster tape).
func BenchmarkIngestRetrainSwap(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	db := vecdata.SyntheticFace(rng, 400, 8)
	wl := vecdata.GeometricWorkload(rng, db, 16, 4)
	cut := len(wl.Queries) * 3 / 4
	train, valid := wl.Queries[:cut], wl.Queries[cut:]
	cfg := selnet.Config{
		L: 8, EmbedDim: 8,
		AEHidden: []int{16}, AELatent: 4,
		TauHidden: []int{16}, MHidden: []int{16},
		TMax: wl.TMax, Lambda: 0.1, QueryDependentTau: true, NormEps: 1e-6,
	}
	net := selnet.NewNet(rng, db.Dim, cfg)
	tc := selnet.TrainConfig{Epochs: 2, Batch: 64, LR: 5e-3, HuberDelta: 1.345, LogEps: 1e-3, Seed: 1}
	net.Fit(tc, db, train, valid)

	reg := serve.NewRegistry(nil)
	if _, err := reg.Publish("bench", net, "bench"); err != nil {
		b.Fatal(err)
	}
	pipe := ingest.New(ingest.Config{
		Registry: reg,
		Train:    tc,
		// DeltaU < 0 forces a retrain+swap every cycle, so every
		// iteration measures the full update-to-visible path.
		Update: selnet.UpdateConfig{DeltaU: -1, Patience: 1, MaxEpochs: 2},
	})
	defer pipe.Close()
	// The pipeline owns its database copy; the benchmark keeps sampling
	// insert vectors from the original without racing the worker.
	if err := pipe.Attach("bench", net, db.Clone(), train, valid); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ins := make([][]float64, 5)
		for j := range ins {
			ins[j] = vecdata.SampleLike(rng, db, 0.05)
		}
		ack, err := pipe.Enqueue("bench", ins, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !pipe.WaitApplied("bench", ack.Seq) {
			b.Fatal("batch never applied")
		}
	}
	b.StopTimer()
	m, _ := reg.Get("bench")
	if got, want := m.Generation, uint64(b.N+1); got != want {
		b.Fatalf("generation %d after %d updates, want %d", got, b.N, want)
	}
	st := pipe.UpdaterStats()["bench"]
	b.ReportMetric(float64(st.Retrained), "swaps")
}

// WAL benchmarks: the durability tax of the update path. Append is one
// encoded record plus a (group-committed) fsync — the latency a client
// pays between POST and 202 with -journal-dir set; Replay is the boot-
// time scan that recovers entries after a crash.

func walBenchEntry(seq uint64) ingest.Entry {
	ins := make([][]float64, 5)
	for i := range ins {
		v := make([]float64, 16)
		for j := range v {
			v[j] = float64(seq) + float64(i*16+j)/100
		}
		ins[i] = v
	}
	return ingest.Entry{Seq: seq, At: time.Unix(0, int64(seq)), Insert: ins}
}

func BenchmarkWALAppend(b *testing.B) {
	w, _, err := ingest.OpenWAL(filepath.Join(b.TempDir(), "bench.wal"), "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(walBenchEntry(uint64(i + 1))); err != nil {
			b.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := w.Stats()
	b.SetBytes(st.Size / int64(b.N))
	b.ReportMetric(float64(st.Size)/float64(b.N), "bytes/record")
}

func BenchmarkWALReplay(b *testing.B) {
	const records = 1000
	path := filepath.Join(b.TempDir(), "bench.wal")
	w, _, err := ingest.OpenWAL(path, "bench")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if err := w.Append(walBenchEntry(uint64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		b.Fatal(err)
	}
	size := w.Stats().Size
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, rec, err := ingest.OpenWAL(path, "bench")
		if err != nil {
			b.Fatal(err)
		}
		if len(rec.Entries) != records {
			b.Fatalf("recovered %d records, want %d", len(rec.Entries), records)
		}
		w.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

func benchEstimate(b *testing.B, model string) {
	cfg := quick()
	cfg.Epochs = 3 // estimation speed does not depend on training quality
	env := experiments.NewEnv(cfg, "fasttext-cos")
	est := experiments.BuildModel(cfg, env, model)
	if est == nil {
		b.Skipf("%s inapplicable", model)
	}
	queries := env.Test
	// Warm up so plan-backed estimators compile outside the measurement;
	// their steady state is allocation-free (see -benchmem). Every test
	// query runs once: a partitioned model compiles one plan per cluster
	// head, lazily, on the first query routed to that cluster.
	for _, q := range queries {
		est.Estimate(q.X, q.T)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		est.Estimate(q.X, q.T)
	}
}
