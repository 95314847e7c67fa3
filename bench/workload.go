package main

import (
	"encoding/json"
	"hash/fnv"
	"math/rand"

	"selnet/internal/vecdata"
)

// request is one pre-encoded estimate request plus what the oracle
// needs to check its answer. Single estimates have one row.
type request struct {
	body []byte
	xs   [][]float64
	ts   []float64
	// perVector is how many adjacent rows share one query vector, at
	// ascending thresholds.
	perVector int
	// key and slot place a point_hot request on its vector's threshold
	// ladder (slot ascending in t) for the monotonicity check; key is -1
	// elsewhere.
	key, slot int
}

// stream is the request sequence of one client: the i-th send is
// reqs[order[i % len(order)]].
type stream struct {
	reqs  []request
	order []int32
	// fill, when set, replaces the timed warm-up: these requests are sent
	// once each, in this order, so that every trial's window starts from
	// the same cache contents whatever the seed and the machine's speed.
	fill []int32
}

func (s *stream) at(i int) *request { return &s.reqs[s.order[i%len(s.order)]] }

// workload is one traffic mix. Each runs against a fresh daemon.
type workload struct {
	name  string
	why   string
	model string // fixture model served: "ct" or "part"
	path  string // route of the primary request
	// static workloads serve one immutable model, so every answer must
	// equal the same model file evaluated in-process.
	static bool
	build  func(fx *fixtures, rng *rand.Rand, model string) *stream
}

const (
	pointDistinct = 16384 // distinct bodies of point_serial; 4x the daemon's estimate cache
	hotPairs      = 8192  // fixed (x, t) pairs of point_hot; 2x the daemon's estimate cache
	hotFill       = 64    // most popular keys cached before point_hot's window
	hotDraws      = 1 << 18
	zipfS         = 1.1
	scanVectors   = 32 // vectors per batch_scan request, each at fxThresholds thresholds
	scanDistinct  = 48 // distinct batch_scan bodies (~330 KB of JSON each)
	queryJitter   = 1e-3
	updateRate    = 10 // update batches per second on update_mixed
	updateInserts = 8
	updateDeletes = 2
	insertJitter  = 0.05
)

var workloads = []workload{
	{
		name:  "point_serial",
		why:   "one closed-loop client, distinct single estimates: coalescer linger and HTTP/JSON do the work, the cache only wastes it",
		model: "ct", path: "/v1/estimate", static: true,
		build: distinctPoints,
	},
	{
		name:  "point_hot",
		why:   "same client, Zipf(1.1) over 8192 fixed keys against a 4096-entry cache: hits skip coalescer and model, misses pay the linger",
		model: "ct", path: "/v1/estimate", static: true,
		build: hotPoints,
	},
	{
		name:  "batch_scan",
		why:   "one client, 256-row batches (32 vectors x 8 ascending t) on the partitioned model: JSON decode, gating, plans and GEMM; no cache, no coalescer",
		model: "part", path: "/v1/estimate/batch", static: true,
		build: scanBatches,
	},
	{
		name:  "update_mixed",
		why:   "open-loop 10 update batches/s with a retrain per cycle beside one closed-loop reader: WAL fsync, relabel and training contend with reads",
		model: "ct", path: "/v1/estimate", static: false,
		build: distinctPoints,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// streamRNG derives an independent generator per (seed, purpose), so
// adding a consumer never shifts another's inputs.
func streamRNG(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64()&0x7fffffffffffffff)))
}

func jitter(rng *rand.Rand, base []float64, sigma float64) []float64 {
	v := make([]float64, len(base))
	for i, b := range base {
		v[i] = b + rng.NormFloat64()*sigma
	}
	return v
}

func pointBody(model string, x []float64, t float64) []byte {
	b, err := json.Marshal(struct {
		Model string    `json:"model"`
		Query []float64 `json:"query"`
		T     float64   `json:"t"`
	}{model, x, t})
	if err != nil {
		panic(err) // finite floats always encode
	}
	return b
}

func batchBody(model string, xs [][]float64, ts []float64) []byte {
	b, err := json.Marshal(struct {
		Model   string      `json:"model"`
		Queries [][]float64 `json:"queries"`
		Ts      []float64   `json:"ts"`
	}{model, xs, ts})
	if err != nil {
		panic(err)
	}
	return b
}

func sequential(n int) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	return order
}

// pointRequest jitters one held-out test query into a single estimate.
func pointRequest(fx *fixtures, rng *rand.Rand, model string) request {
	q := fx.split.Test[rng.Intn(len(fx.split.Test))]
	x := jitter(rng, q.X, queryJitter)
	return request{body: pointBody(model, x, q.T), xs: [][]float64{x}, ts: []float64{q.T}, perVector: 1, key: -1}
}

// scanRequest builds one batch of scanVectors jittered test vectors at
// their fxThresholds ascending thresholds, rows of one vector adjacent.
func scanRequest(fx *fixtures, rng *rand.Rand, model string) request {
	groups := fx.testVectors()
	var xs [][]float64
	var ts []float64
	for v := 0; v < scanVectors; v++ {
		g := groups[rng.Intn(len(groups))]
		x := jitter(rng, g[0].X, queryJitter)
		for _, q := range g {
			xs = append(xs, x)
			ts = append(ts, q.T)
		}
	}
	return request{body: batchBody(model, xs, ts), xs: xs, ts: ts, perVector: fxThresholds, key: -1}
}

// distinctPoints is pointDistinct requests no two of which share a
// cache key.
func distinctPoints(fx *fixtures, rng *rand.Rand, model string) *stream {
	s := &stream{reqs: make([]request, pointDistinct), order: sequential(pointDistinct)}
	for i := range s.reqs {
		s.reqs[i] = pointRequest(fx, rng, model)
	}
	return s
}

// hotPoints fixes hotPairs keys (hotPairs/fxThresholds jittered vectors,
// each at its base vector's ascending thresholds) and draws them with
// Zipf popularity, ranks shuffled over the keys.
func hotPoints(fx *fixtures, rng *rand.Rand, model string) *stream {
	groups := fx.testVectors()
	s := &stream{reqs: make([]request, 0, hotPairs), order: make([]int32, hotDraws)}
	for key := 0; key < hotPairs/fxThresholds; key++ {
		g := groups[rng.Intn(len(groups))]
		x := jitter(rng, g[0].X, queryJitter)
		for slot, q := range g {
			s.reqs = append(s.reqs, request{body: pointBody(model, x, q.T), xs: [][]float64{x}, ts: []float64{q.T}, perVector: 1, key: key, slot: slot})
		}
	}
	rank := rng.Perm(hotPairs)
	z := rand.NewZipf(rng, zipfS, 1, hotPairs-1)
	for i := range s.order {
		s.order[i] = int32(rank[z.Uint64()])
	}
	// A daemon that has been up for a while holds the popular keys. The
	// hotFill most popular are cached before the window, most popular last
	// (so it is the last the LRU evicts): every seed's window then starts
	// at the same hit ratio, about 0.6, and ends near 0.7 as the cache
	// keeps filling. That keeps p50 a hit and p95 a miss, and keeps the
	// rate from hanging on the hit latency alone, which on a virtual
	// machine flips between two values with the host's idle-wake-up mood.
	for i := hotFill - 1; i >= 0; i-- {
		s.fill = append(s.fill, int32(rank[i]))
	}
	return s
}

// scanBatches cycles over scanDistinct 256-row request bodies.
func scanBatches(fx *fixtures, rng *rand.Rand, model string) *stream {
	s := &stream{reqs: make([]request, scanDistinct), order: sequential(scanDistinct)}
	for i := range s.reqs {
		s.reqs[i] = scanRequest(fx, rng, model)
	}
	return s
}

// probeQueries are the accuracy probe sent after the window: at least n
// jittered test queries in the workload's request shape, answered over
// its primary route and scored against exact selectivity on the mirror.
func probeQueries(fx *fixtures, w *workload, rng *rand.Rand, n int) []request {
	var reqs []request
	for rows := 0; rows < n; {
		var r request
		if w.path == "/v1/estimate/batch" {
			r = scanRequest(fx, rng, w.model)
		} else {
			r = pointRequest(fx, rng, w.model)
		}
		reqs = append(reqs, r)
		rows += len(r.ts)
	}
	return reqs
}

// updateBatch is one pre-encoded insert/delete batch and the vectors it
// carries, for the driver's mirror.
type updateBatch struct {
	body   []byte
	insert [][]float64
	del    [][]float64
}

// updateBatches generates n batches of updateInserts fresh vectors
// (SampleLike on the base data) and updateDeletes deletions of vectors
// inserted by earlier batches.
func updateBatches(db *vecdata.Database, rng *rand.Rand, n int) []updateBatch {
	out := make([]updateBatch, n)
	var live [][]float64 // inserted by earlier batches, not yet deleted
	for i := range out {
		b := &out[i]
		for j := 0; j < updateDeletes && len(live) > 0; j++ {
			k := rng.Intn(len(live))
			b.del = append(b.del, live[k])
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for j := 0; j < updateInserts; j++ {
			b.insert = append(b.insert, vecdata.SampleLike(rng, db, insertJitter))
		}
		live = append(live, b.insert...)
		body, err := json.Marshal(struct {
			Insert [][]float64 `json:"insert"`
			Delete [][]float64 `json:"delete,omitempty"`
		}{b.insert, b.del})
		if err != nil {
			panic(err)
		}
		b.body = body
	}
	return out
}
