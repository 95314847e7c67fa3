package obs

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"selnet/internal/metrics"
)

// This file is the live-traffic accuracy layer: a deterministic sampler
// (Shadow) taps a configurable fraction of estimate requests on the
// serving hot path — one hash and one non-blocking channel send, zero
// allocations — and an async oracle worker pool computes ground truth
// off the serving path, feeding q-errors into rolling per-model
// aggregates (AccuracyMonitor) broken down by threshold bucket and by
// partition, with a worst-N ring retaining the requests estimated
// worst. The drift monitor in drift.go scores relabelled holdouts at
// ingest cycles; this scores the queries users actually send, between
// cycles, against an oracle with distribution-free sampling bounds.

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// hash used to turn sequential trace IDs into uniform sampling keys and
// to derive deterministic per-query sampling streams.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Mix64 exposes the sampler's hash so oracle implementations can derive
// deterministic sampling streams from query content.
func Mix64(x uint64) uint64 { return mix64(x) }

// ----------------------------------------------------------------------------
// Threshold buckets

// NumThresholdBuckets is the number of relative-threshold bands that
// q-errors are attributed to: a query's threshold t is bucketed by its
// ratio to the model's training t_max, since selectivity (and therefore
// estimation difficulty) scales with the radius, not its absolute value.
const NumThresholdBuckets = 5

var thresholdBucketLabels = [NumThresholdBuckets]string{
	"0-10%", "10-25%", "25-50%", "50-100%", ">100%",
}

// ThresholdBucket maps a query threshold to its band index given the
// model's training t_max. Non-positive t_max (model without a known
// radius range) lands everything in the last band.
func ThresholdBucket(t, tmax float64) int {
	if tmax <= 0 {
		return NumThresholdBuckets - 1
	}
	switch r := t / tmax; {
	case r <= 0.10:
		return 0
	case r <= 0.25:
		return 1
	case r <= 0.50:
		return 2
	case r <= 1.0:
		return 3
	default:
		return NumThresholdBuckets - 1
	}
}

// ThresholdBucketLabel returns the human-readable band for an index
// from ThresholdBucket.
func ThresholdBucketLabel(i int) string {
	if i < 0 || i >= NumThresholdBuckets {
		return "unknown"
	}
	return thresholdBucketLabels[i]
}

// ----------------------------------------------------------------------------
// Rolling q-error aggregation

// Every rolling q-error window, the drift monitor's and the shadow
// aggregates' alike, keeps the qerrWindow most recent q-errors, floored
// at qerrFloor on both estimate and truth (1, the paper's convention
// for cardinalities).
const (
	qerrWindow = 512
	qerrFloor  = 1
)

// qring is a fixed-capacity rolling window of q-errors. Pushes are O(1)
// and allocation-free; quantiles are computed only at snapshot time
// (scrapes and /debug/accuracy reads), never per observation.
type qring struct {
	ring  []float64
	n     int
	pos   int
	count uint64 // lifetime observations
}

func newQring() qring { return qring{ring: make([]float64, qerrWindow)} }

func (r *qring) push(v float64) {
	r.ring[r.pos] = v
	r.pos = (r.pos + 1) % len(r.ring)
	if r.n < len(r.ring) {
		r.n++
	}
	r.count++
}

// quantiles sorts a copy of the window (snapshot path only) and reads
// the requested quantiles from it.
func (r *qring) quantiles(qs ...float64) []float64 {
	return metrics.Quantiles(r.ring[:r.n], qs...)
}

// worstN is how many highest-q-error samples the AccuracyMonitor
// retains per model with their trace IDs.
const worstN = 16

// AccuracySample is one shadow-scored request, produced by the Shadow
// worker pool and pushed into the AccuracyMonitor.
type AccuracySample struct {
	TraceID   uint64
	Bucket    int // ThresholdBucket index
	Partition int // model partition/region id; -1 when not partitioned
	Estimate  float64
	Truth     float64
	T         float64
	Oracle    string // ground-truth method: "exact", "sample", "lsh"
}

// WorstSample is a retained worst-case request as served by
// /debug/accuracy: the trace ID links it back to /debug/traces and the
// access log.
type WorstSample struct {
	TraceID   string    `json:"trace_id"`
	QError    float64   `json:"qerror"`
	Estimate  float64   `json:"estimate"`
	Truth     float64   `json:"truth"`
	T         float64   `json:"t"`
	Bucket    string    `json:"bucket"`
	Partition int       `json:"partition,omitempty"`
	Oracle    string    `json:"oracle"`
	At        time.Time `json:"at"`
}

// worstEntry is the internal, allocation-free form of a WorstSample.
type worstEntry struct {
	sample AccuracySample
	qerr   float64
	at     time.Time
}

// BreakdownStats summarizes one rolling aggregate (a threshold bucket
// or a partition) at snapshot time.
type BreakdownStats struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"qerror_p50"`
	P95   float64 `json:"qerror_p95"`
	Max   float64 `json:"qerror_max"`
}

// AccuracyStats is one model's shadow-scoring picture: overall rolling
// quantiles plus per-threshold-bucket and per-partition breakdowns and
// the retained worst-N requests.
type AccuracyStats struct {
	Samples    uint64                    `json:"samples"`
	Window     int                       `json:"window"`
	P50        float64                   `json:"qerror_p50"`
	P95        float64                   `json:"qerror_p95"`
	P99        float64                   `json:"qerror_p99"`
	Max        float64                   `json:"qerror_max"`
	Buckets    map[string]BreakdownStats `json:"buckets,omitempty"`
	Partitions map[string]BreakdownStats `json:"partitions,omitempty"`
	Worst      []WorstSample             `json:"worst,omitempty"`
	LastAt     time.Time                 `json:"last_sample_at"`
}

// modelAccuracy is one model's rolling state. The overall and
// per-bucket rings are allocated when the model is first observed; the
// partition map grows one ring per region actually seen.
type modelAccuracy struct {
	overall qring
	buckets [NumThresholdBuckets]qring
	parts   map[int]*qring
	worst   []worstEntry // capacity worstN; min-replaced once full
	lastAt  time.Time
}

// AccuracyMonitor aggregates shadow-scored q-errors per model. Observe
// runs on the oracle worker goroutines (never the serving path) and is
// allocation-free once a model's rings exist; Stats and WriteMetrics
// are scrape-time reads that do their sorting on the scraper's
// goroutine.
type AccuracyMonitor struct {
	mu     sync.Mutex
	models map[string]*modelAccuracy
}

// NewAccuracyMonitor builds an empty monitor.
func NewAccuracyMonitor() *AccuracyMonitor {
	return &AccuracyMonitor{models: make(map[string]*modelAccuracy)}
}

// Observe records one shadow-scored sample: the q-error lands in the
// model's overall window, its threshold bucket's window, and (when the
// sample carries a partition) that partition's window; sufficiently bad
// samples displace the current minimum of the worst-N list.
func (a *AccuracyMonitor) Observe(model string, s AccuracySample) {
	qerr := metrics.QError(s.Estimate, s.Truth, qerrFloor)
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.models[model]
	if m == nil {
		m = &modelAccuracy{
			overall: newQring(),
			parts:   make(map[int]*qring),
			worst:   make([]worstEntry, 0, worstN),
		}
		for i := range m.buckets {
			m.buckets[i] = newQring()
		}
		a.models[model] = m
	}
	m.overall.push(qerr)
	if s.Bucket >= 0 && s.Bucket < NumThresholdBuckets {
		m.buckets[s.Bucket].push(qerr)
	}
	if s.Partition >= 0 {
		pr := m.parts[s.Partition]
		if pr == nil {
			q := newQring()
			pr = &q
			m.parts[s.Partition] = pr
		}
		pr.push(qerr)
	}
	m.lastAt = time.Now()

	// Worst-N retention, the slow-trace ring idiom: append until full,
	// then replace the current minimum if this sample is worse.
	if len(m.worst) < cap(m.worst) {
		m.worst = append(m.worst, worstEntry{sample: s, qerr: qerr, at: m.lastAt})
		return
	}
	min := 0
	for i := 1; i < len(m.worst); i++ {
		if m.worst[i].qerr < m.worst[min].qerr {
			min = i
		}
	}
	if qerr > m.worst[min].qerr {
		m.worst[min] = worstEntry{sample: s, qerr: qerr, at: m.lastAt}
	}
}

// Stats snapshots every observed model. worstLimit caps the worst-N
// list per model (<= 0 means all retained entries).
func (a *AccuracyMonitor) Stats(worstLimit int) map[string]AccuracyStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]AccuracyStats, len(a.models))
	for name, m := range a.models {
		out[name] = a.snapshotLocked(m, worstLimit)
	}
	return out
}

// ModelStats snapshots one model (zero value, false if never observed).
func (a *AccuracyMonitor) ModelStats(model string, worstLimit int) (AccuracyStats, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.models[model]
	if m == nil {
		return AccuracyStats{}, false
	}
	return a.snapshotLocked(m, worstLimit), true
}

func (a *AccuracyMonitor) snapshotLocked(m *modelAccuracy, worstLimit int) AccuracyStats {
	qs := m.overall.quantiles(0.5, 0.95, 0.99, 1)
	st := AccuracyStats{
		Samples: m.overall.count,
		Window:  m.overall.n,
		P50:     qs[0], P95: qs[1], P99: qs[2], Max: qs[3],
		LastAt: m.lastAt,
	}
	for i := range m.buckets {
		b := &m.buckets[i]
		if b.n == 0 {
			continue // empty buckets are omitted, not reported as zeros
		}
		if st.Buckets == nil {
			st.Buckets = make(map[string]BreakdownStats, NumThresholdBuckets)
		}
		bq := b.quantiles(0.5, 0.95, 1)
		st.Buckets[thresholdBucketLabels[i]] = BreakdownStats{Count: b.count, P50: bq[0], P95: bq[1], Max: bq[2]}
	}
	if len(m.parts) > 0 {
		st.Partitions = make(map[string]BreakdownStats, len(m.parts))
		for id, pr := range m.parts {
			pq := pr.quantiles(0.5, 0.95, 1)
			st.Partitions[strconv.Itoa(id)] = BreakdownStats{Count: pr.count, P50: pq[0], P95: pq[1], Max: pq[2]}
		}
	}
	if n := len(m.worst); n > 0 {
		ws := make([]worstEntry, n)
		copy(ws, m.worst)
		sort.Slice(ws, func(i, j int) bool { return ws[i].qerr > ws[j].qerr })
		if worstLimit > 0 && worstLimit < len(ws) {
			ws = ws[:worstLimit]
		}
		st.Worst = make([]WorstSample, len(ws))
		for i, w := range ws {
			st.Worst[i] = WorstSample{
				TraceID:   FormatTraceID(w.sample.TraceID),
				QError:    w.qerr,
				Estimate:  w.sample.Estimate,
				Truth:     w.sample.Truth,
				T:         w.sample.T,
				Bucket:    ThresholdBucketLabel(w.sample.Bucket),
				Partition: w.sample.Partition,
				Oracle:    w.sample.Oracle,
				At:        w.at,
			}
		}
	}
	return st
}

// WriteMetrics emits the shadow-accuracy families: rolling q-error
// quantiles overall ("all") and per threshold bucket, per-partition
// quantiles, and per-model sample totals.
func (a *AccuracyMonitor) WriteMetrics(p *PromWriter) {
	stats := a.Stats(0)
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := stats[name]
		const qerrHelp = "Rolling q-error quantile of live shadow-scored estimates, by threshold bucket (relative to the model's t_max)."
		for _, q := range []struct {
			label string
			v     float64
		}{{"p50", st.P50}, {"p95", st.P95}, {"p99", st.P99}, {"max", st.Max}} {
			p.Value("selestd_shadow_qerror", qerrHelp, "gauge", q.v, "model", name, "bucket", "all", "quantile", q.label)
		}
		buckets := make([]string, 0, len(st.Buckets))
		for b := range st.Buckets {
			buckets = append(buckets, b)
		}
		sort.Strings(buckets)
		for _, b := range buckets {
			bs := st.Buckets[b]
			for _, q := range []struct {
				label string
				v     float64
			}{{"p50", bs.P50}, {"p95", bs.P95}, {"max", bs.Max}} {
				p.Value("selestd_shadow_qerror", qerrHelp, "gauge", q.v, "model", name, "bucket", b, "quantile", q.label)
			}
		}
		parts := make([]string, 0, len(st.Partitions))
		for id := range st.Partitions {
			parts = append(parts, id)
		}
		sort.Strings(parts)
		for _, id := range parts {
			ps := st.Partitions[id]
			for _, q := range []struct {
				label string
				v     float64
			}{{"p50", ps.P50}, {"p95", ps.P95}, {"max", ps.Max}} {
				p.Value("selestd_shadow_partition_qerror", "Rolling q-error quantile of live shadow-scored estimates attributed to one model partition.",
					"gauge", q.v, "model", name, "partition", id, "quantile", q.label)
			}
		}
		p.Value("selestd_shadow_samples_total", "Live requests shadow-scored against ground truth.", "counter", float64(st.Samples), "model", name)
		p.Value("selestd_shadow_window_size", "Q-error samples currently in the model's rolling window.", "gauge", float64(st.Window), "model", name)
	}
}

// ----------------------------------------------------------------------------
// Shadow sampler + oracle worker pool

// Oracle computes ground-truth selectivity for a query off the serving
// path. Implementations identify how the truth was obtained — "exact"
// (full scan), "sample" (VC-bounded uniform sample), or "lsh"
// (stratified LSH sample) — so accuracy readers know the truth's own
// error bound.
type Oracle interface {
	TrueSelectivity(x []float64, t float64) (value float64, method string)
}

// ShadowConfig tunes the sampler and its worker pool.
type ShadowConfig struct {
	// SampleRate is the fraction of estimate requests shadow-scored,
	// in [0, 1]. The decision hashes the request's trace ID, so it is
	// deterministic per request and costs one multiply-shift on the
	// serving path. 0 disables sampling entirely.
	SampleRate float64
	// Workload, when set, receives every sampled query vector for
	// workload-shift detection.
	Workload *WorkloadMonitor
}

// A Shadow's samples wait in a shadowQueueDepth-deep channel between
// the serving tap and shadowWorkers oracle workers. A full queue drops
// the sample and increments a counter; the serving path never blocks.
const (
	shadowQueueDepth = 256
	shadowWorkers    = 1
)

// shadowSample rides the bounded channel from the tap to the workers.
// The query slice is owned by the request handler's decode buffer only
// until the handler returns, so the tap copies it into the sample's
// inline array when it fits (the common case for the serving stack's
// dimensionalities) and falls back to a heap copy above that.
type shadowSample struct {
	model   string
	traceID uint64
	t       float64
	tmax    float64
	est     float64
	dim     int
	inline  [64]float64
	spill   []float64
}

func (s *shadowSample) query() []float64 {
	if s.spill != nil {
		return s.spill
	}
	return s.inline[:s.dim]
}

// Shadow taps the live estimate path. The tap (Offer) is safe for
// concurrent use by every request goroutine, allocation-free for
// dimensionalities up to the inline capacity, and never blocks: a
// sampled request is enqueued onto a bounded channel or counted as
// dropped. A small worker pool consumes the channel, asks the model's
// registered Oracle for ground truth, and feeds q-errors into the
// AccuracyMonitor (and query vectors into the WorkloadMonitor).
type Shadow struct {
	cfg       ShadowConfig
	accuracy  *AccuracyMonitor
	threshold uint64 // sample iff mix64(key) < threshold
	ch        chan shadowSample
	quit      chan struct{}
	wg        sync.WaitGroup
	closed    atomic.Bool

	mu      sync.RWMutex
	oracles map[string]Oracle
	locate  func(model string, x []float64, t float64) (int, bool)

	sampled  atomic.Uint64
	dropped  atomic.Uint64
	noOracle atomic.Uint64

	methodMu sync.Mutex
	methods  map[string]uint64
}

// NewShadow builds the sampler and starts its worker pool. Close must
// be called to stop the workers.
func NewShadow(cfg ShadowConfig) *Shadow {
	var threshold uint64
	switch {
	case cfg.SampleRate >= 1:
		threshold = ^uint64(0)
	case cfg.SampleRate > 0:
		threshold = uint64(cfg.SampleRate * float64(^uint64(0)))
	}
	s := &Shadow{
		cfg:       cfg,
		accuracy:  NewAccuracyMonitor(),
		threshold: threshold,
		ch:        make(chan shadowSample, shadowQueueDepth),
		quit:      make(chan struct{}),
		oracles:   make(map[string]Oracle),
		methods:   make(map[string]uint64),
	}
	s.wg.Add(shadowWorkers)
	for i := 0; i < shadowWorkers; i++ {
		go s.worker()
	}
	return s
}

// Enabled reports whether the sampler can ever sample (nil-safe).
func (s *Shadow) Enabled() bool { return s != nil && s.threshold > 0 }

// Accuracy returns the monitor receiving the scored samples.
func (s *Shadow) Accuracy() *AccuracyMonitor { return s.accuracy }

// Workload returns the workload monitor, if any.
func (s *Shadow) Workload() *WorkloadMonitor { return s.cfg.Workload }

// SetOracle registers (or, with nil, removes) the ground-truth oracle
// for a model. Samples for models without an oracle still feed the
// workload monitor but are counted as no_oracle rather than scored.
func (s *Shadow) SetOracle(model string, o Oracle) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if o == nil {
		delete(s.oracles, model)
		return
	}
	s.oracles[model] = o
}

// SetLocate installs the partition locator used to attribute samples to
// model regions; called by the serving layer before traffic flows.
func (s *Shadow) SetLocate(f func(model string, x []float64, t float64) (int, bool)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.locate = f
}

// Offer is the hot-path tap: decide-by-hash, then enqueue-or-drop.
// traceID is the request's trace identifier (retained with the sample
// so worst cases link back to /debug/traces); salt distinguishes
// multiple queries within one traced request (batch estimates), 0 for
// single-query requests. Returns whether the request was sampled and
// enqueued.
func (s *Shadow) Offer(model string, traceID, salt uint64, q []float64, t, tmax, est float64) bool {
	if s == nil || s.threshold == 0 || s.closed.Load() {
		return false
	}
	key := traceID
	if salt != 0 {
		key ^= mix64(salt)
	}
	if mix64(key) >= s.threshold {
		return false
	}
	sm := shadowSample{model: model, traceID: traceID, t: t, tmax: tmax, est: est, dim: len(q)}
	if len(q) <= len(sm.inline) {
		copy(sm.inline[:], q)
	} else {
		sm.spill = append([]float64(nil), q...)
	}
	// Counted before the send, so no worker scores a sample that
	// sampled does not yet include; undone if the queue is full.
	s.sampled.Add(1)
	select {
	case s.ch <- sm:
		return true
	default:
		s.sampled.Add(^uint64(0))
		s.dropped.Add(1)
		return false
	}
}

// Close stops accepting samples, drains what is already queued, and
// waits for the workers to exit.
func (s *Shadow) Close() {
	if s == nil || !s.closed.CompareAndSwap(false, true) {
		return
	}
	close(s.quit)
	s.wg.Wait()
}

func (s *Shadow) worker() {
	defer s.wg.Done()
	// One reusable sample per worker: the oracle call sees a slice into
	// it through an interface, so a per-iteration variable would escape
	// to the heap on every sample.
	var sm shadowSample
	for {
		select {
		case sm = <-s.ch:
			s.handle(&sm)
		case <-s.quit:
			for {
				select {
				case sm = <-s.ch:
					s.handle(&sm)
				default:
					return
				}
			}
		}
	}
}

func (s *Shadow) handle(sm *shadowSample) {
	q := sm.query()
	if s.cfg.Workload != nil {
		s.cfg.Workload.Observe(sm.model, q, sm.t)
	}
	s.mu.RLock()
	o := s.oracles[sm.model]
	locate := s.locate
	s.mu.RUnlock()
	if o == nil {
		s.noOracle.Add(1)
		return
	}
	truth, method := o.TrueSelectivity(q, sm.t)
	part := -1
	if locate != nil {
		if id, ok := locate(sm.model, q, sm.t); ok {
			part = id
		}
	}
	s.methodMu.Lock()
	s.methods[method]++
	s.methodMu.Unlock()
	s.accuracy.Observe(sm.model, AccuracySample{
		TraceID:   sm.traceID,
		Bucket:    ThresholdBucket(sm.t, sm.tmax),
		Partition: part,
		Estimate:  sm.est,
		Truth:     truth,
		T:         sm.t,
		Oracle:    method,
	})
}

// ShadowStats is the sampler's own picture: configuration, queue
// pressure, and how ground truths were obtained.
type ShadowStats struct {
	SampleRate    float64           `json:"sample_rate"`
	Sampled       uint64            `json:"sampled"`
	Dropped       uint64            `json:"dropped"`
	NoOracle      uint64            `json:"no_oracle"`
	QueueDepth    int               `json:"queue_depth"`
	QueueCapacity int               `json:"queue_capacity"`
	Workers       int               `json:"workers"`
	Oracles       map[string]uint64 `json:"oracle_methods,omitempty"`
}

// Stats snapshots the sampler.
func (s *Shadow) Stats() ShadowStats {
	st := ShadowStats{
		SampleRate:    s.cfg.SampleRate,
		Sampled:       s.sampled.Load(),
		Dropped:       s.dropped.Load(),
		NoOracle:      s.noOracle.Load(),
		QueueDepth:    len(s.ch),
		QueueCapacity: cap(s.ch),
		Workers:       shadowWorkers,
	}
	s.methodMu.Lock()
	if len(s.methods) > 0 {
		st.Oracles = make(map[string]uint64, len(s.methods))
		for m, n := range s.methods {
			st.Oracles[m] = n
		}
	}
	s.methodMu.Unlock()
	return st
}

// WriteMetrics emits the sampler, accuracy, and workload families.
func (s *Shadow) WriteMetrics(p *PromWriter) {
	st := s.Stats()
	p.Value("selestd_shadow_sample_rate", "Configured fraction of estimate requests shadow-scored.", "gauge", st.SampleRate)
	p.Value("selestd_shadow_sampled_total", "Requests sampled into the shadow-scoring queue.", "counter", float64(st.Sampled))
	p.Value("selestd_shadow_dropped_total", "Sampled requests dropped because the shadow queue was full.", "counter", float64(st.Dropped))
	p.Value("selestd_shadow_no_oracle_total", "Sampled requests skipped because the model has no ground-truth oracle.", "counter", float64(st.NoOracle))
	p.Value("selestd_shadow_queue_depth", "Shadow-scoring queue occupancy at scrape time.", "gauge", float64(st.QueueDepth))
	methods := make([]string, 0, len(st.Oracles))
	for m := range st.Oracles {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	for _, m := range methods {
		p.Value("selestd_shadow_oracle_truths_total", "Ground truths computed, by oracle method.", "counter", float64(st.Oracles[m]), "method", m)
	}
	s.accuracy.WriteMetrics(p)
	if s.cfg.Workload != nil {
		s.cfg.Workload.WriteMetrics(p)
	}
}
