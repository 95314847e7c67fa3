package obs

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"
)

// Stage indexes one instrumented segment of a request's lifetime. The
// serving layer stamps stage boundaries as the request moves HTTP
// ingress → cache → plan execute → encode; a span carries
// one duration per stage.
type Stage uint8

const (
	// StageDecode covers reading and validating the request body plus
	// model lookup.
	StageDecode Stage = iota
	// StageCache covers selectivity-cache lookup and fill.
	StageCache
	// StageExecute covers the estimator call.
	StageExecute
	// StageEncode covers response encoding and write-out.
	StageEncode
	// NumStages is the number of traced stages.
	NumStages = iota
)

var stageNames = [NumStages]string{"decode", "cache", "execute", "encode"}

// String returns the stage's wire name (used as the "stage" metric
// label and as /debug/traces JSON keys).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Span is one request's trace record: identity, where the time went by
// stage, and enough request shape (route, model, batch size, cache
// outcome, status) to explain it. Spans are plain values sized for a
// ring slot — no pointers, no per-request allocation.
type Span struct {
	TraceID   uint64
	Route     string
	Model     string
	Start     time.Time
	Total     time.Duration
	Stages    [NumStages]time.Duration
	Status    int
	BatchSize int
	Cached    bool
}

// MarshalJSON renders the span for /debug/traces with stages keyed by
// name, so every span always carries all stage keys (zero means the
// stage did not apply — e.g. execute time on a cache hit).
func (sp Span) MarshalJSON() ([]byte, error) {
	stages := make(map[string]int64, NumStages)
	for i := Stage(0); i < NumStages; i++ {
		stages[i.String()] = sp.Stages[i].Nanoseconds()
	}
	return json.Marshal(struct {
		TraceID   string           `json:"trace_id"`
		Route     string           `json:"route"`
		Model     string           `json:"model,omitempty"`
		Start     time.Time        `json:"start"`
		TotalNs   int64            `json:"total_ns"`
		Stages    map[string]int64 `json:"stages_ns"`
		Status    int              `json:"status"`
		BatchSize int              `json:"batch_size,omitempty"`
		Cached    bool             `json:"cached,omitempty"`
	}{FormatTraceID(sp.TraceID), sp.Route, sp.Model, sp.Start, sp.Total.Nanoseconds(), stages, sp.Status, sp.BatchSize, sp.Cached})
}

// TracerConfig sizes a Tracer.
type TracerConfig struct {
	// SlowThreshold retains spans with Total at or above it in the
	// slowest-N list (DefaultTracerConfig: 100ms; 0 takes that default).
	SlowThreshold time.Duration
}

// DefaultTracerConfig returns the daemon's tracer settings.
func DefaultTracerConfig() TracerConfig {
	return TracerConfig{SlowThreshold: 100 * time.Millisecond}
}

// A Tracer keeps the traceCapacity most recent spans and the
// slowCapacity slowest.
const (
	traceCapacity = 256
	slowCapacity  = 32
)

// traceSlot is one seqlock-guarded ring entry. seq is even when the
// slot is stable; a writer or reader CASes it odd to claim the slot and
// stores seq+2 to release. Claims never block: a writer that loses the
// CAS drops its span, a reader skips the slot.
type traceSlot struct {
	seq  atomic.Uint64
	span Span
}

// Tracer keeps the most recent spans in a lock-free ring, the slowest
// spans past a threshold in a small mutex-guarded list (rare path), and
// per-stage latency histograms for /metrics. Record is safe for
// concurrent use from every request goroutine.
type Tracer struct {
	cfg   TracerConfig
	slots []traceSlot
	next  atomic.Uint64

	recorded atomic.Uint64
	dropped  atomic.Uint64

	total  *Histogram
	stages [NumStages]*Histogram

	slowMu sync.Mutex
	slow   []Span // unordered; Slow() sorts a copy
}

// NewTracer builds a Tracer.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = DefaultTracerConfig().SlowThreshold
	}
	t := &Tracer{
		cfg:   cfg,
		slots: make([]traceSlot, traceCapacity),
		total: NewHistogram(LatencyBuckets()...),
	}
	for i := range t.stages {
		t.stages[i] = NewHistogram(StageBuckets()...)
	}
	return t
}

// Record stores a finished span: into the ring (dropped, not blocked
// on, if the slot is contended), into the per-stage histograms, and —
// when at or past the slow threshold — into the slowest-N list.
func (t *Tracer) Record(sp Span) {
	sl := &t.slots[t.next.Add(1)%uint64(len(t.slots))]
	if seq := sl.seq.Load(); seq&1 == 0 && sl.seq.CompareAndSwap(seq, seq+1) {
		sl.span = sp
		sl.seq.Store(seq + 2)
		t.recorded.Add(1)
	} else {
		t.dropped.Add(1)
	}

	t.total.Observe(sp.Total.Seconds())
	for i := Stage(0); i < NumStages; i++ {
		// Zero means the stage didn't run (a cache hit skips
		// execute); recording it would drown the histograms in zeros.
		if d := sp.Stages[i]; d > 0 {
			t.stages[i].Observe(d.Seconds())
		}
	}

	if sp.Total >= t.cfg.SlowThreshold {
		t.addSlow(sp)
	}
}

// addSlow inserts sp into the slowest-N list, evicting the current
// minimum once full. Mutex-guarded: only spans past the threshold pay
// for it.
func (t *Tracer) addSlow(sp Span) {
	t.slowMu.Lock()
	defer t.slowMu.Unlock()
	if len(t.slow) < slowCapacity {
		t.slow = append(t.slow, sp)
		return
	}
	min := 0
	for i := 1; i < len(t.slow); i++ {
		if t.slow[i].Total < t.slow[min].Total {
			min = i
		}
	}
	if sp.Total > t.slow[min].Total {
		t.slow[min] = sp
	}
}

// Recent returns up to max spans, newest first. Slots being written
// concurrently are skipped rather than waited for, so a snapshot under
// load may return slightly fewer spans than recorded.
func (t *Tracer) Recent(max int) []Span {
	if max <= 0 || max > len(t.slots) {
		max = len(t.slots)
	}
	out := make([]Span, 0, max)
	head := t.next.Load()
	for i := uint64(0); i < uint64(len(t.slots)) && len(out) < max; i++ {
		sl := &t.slots[(head-i)%uint64(len(t.slots))]
		if sp, ok := t.readSlot(sl); ok {
			out = append(out, sp)
		}
	}
	return out
}

// readSlot copies a slot's span using the same claim protocol as
// writers, so a torn read is impossible: the copy happens strictly
// between a successful CAS to odd and the release store.
func (t *Tracer) readSlot(sl *traceSlot) (Span, bool) {
	seq := sl.seq.Load()
	if seq&1 != 0 || !sl.seq.CompareAndSwap(seq, seq+1) {
		return Span{}, false
	}
	sp := sl.span
	sl.seq.Store(seq + 2)
	return sp, sp.TraceID != 0 // zero ID marks a never-written slot
}

// Slow returns the retained slow spans, slowest first.
func (t *Tracer) Slow() []Span {
	t.slowMu.Lock()
	out := make([]Span, len(t.slow))
	copy(out, t.slow)
	t.slowMu.Unlock()
	for i := 1; i < len(out); i++ { // insertion sort: N ≤ slowCapacity
		for j := i; j > 0 && out[j].Total > out[j-1].Total; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TracerStats summarizes tracer activity for /stats and /debug/traces.
type TracerStats struct {
	Recorded             uint64  `json:"recorded"`
	Dropped              uint64  `json:"dropped"`
	Capacity             int     `json:"capacity"`
	SlowRetained         int     `json:"slow_retained"`
	SlowThresholdSeconds float64 `json:"slow_threshold_seconds"`
}

// Stats snapshots tracer counters.
func (t *Tracer) Stats() TracerStats {
	t.slowMu.Lock()
	retained := len(t.slow)
	t.slowMu.Unlock()
	return TracerStats{
		Recorded:             t.recorded.Load(),
		Dropped:              t.dropped.Load(),
		Capacity:             len(t.slots),
		SlowRetained:         retained,
		SlowThresholdSeconds: t.cfg.SlowThreshold.Seconds(),
	}
}

// StageSnapshot returns the latency histogram for one stage.
func (t *Tracer) StageSnapshot(s Stage) HistogramSnapshot { return t.stages[s].Snapshot() }

// WriteMetrics emits the tracer's Prometheus families: span counters
// and per-stage duration histograms.
func (t *Tracer) WriteMetrics(p *PromWriter) {
	st := t.Stats()
	p.Value("selestd_trace_spans_total", "Request spans recorded into the trace ring.", "counter", float64(st.Recorded))
	p.Value("selestd_trace_spans_dropped_total", "Request spans dropped on ring-slot contention.", "counter", float64(st.Dropped))
	p.Value("selestd_trace_slow_retained", "Spans currently retained in the slowest-N list.", "gauge", float64(st.SlowRetained))
	p.Histogram("selestd_request_duration_seconds", "End-to-end traced request duration.", t.total.Snapshot())
	for i := Stage(0); i < NumStages; i++ {
		p.Histogram("selestd_stage_duration_seconds", "Traced request duration attributed to one pipeline stage.",
			t.stages[i].Snapshot(), "stage", i.String())
	}
}
