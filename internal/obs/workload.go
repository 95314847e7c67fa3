package obs

import (
	"sort"
	"sync"
	"time"
)

// The workload-shift detector compares the live query stream against a
// snapshot of the training workload. Each model gets per-feature
// fixed-bin histograms (every query dimension plus the threshold as one
// extra feature); the baseline is captured by ingest from the model's
// training/validation queries, and the live side is fed by the Shadow
// worker pool — so the serving hot path pays nothing for it. Divergence
// is the per-feature total-variation distance between the normalized
// baseline and live histograms, averaged over features: 0 means the
// live workload looks exactly like training, 1 means disjoint support.
// Past a configured threshold the model is flagged as shifted, which
// ingest surfaces as retraining advice — the live-telemetry complement
// to the paper's delta_U update test, which only sees the data
// distribution, not the query distribution.

// WorkloadConfig tunes the shift detector.
type WorkloadConfig struct {
	// Threshold is the average total-variation divergence above which a
	// model's live workload counts as shifted; 0 disables the alarm
	// (divergence is still computed and published).
	Threshold float64
}

// Each feature's histogram has workloadBins bins, and divergence is
// computed only once workloadMinSamples live queries have accumulated:
// below that the histogram comparison is noise.
const (
	workloadBins       = 16
	workloadMinSamples = 64
)

// workloadState is one model's baseline + live histograms. Bin edges
// are equal-width per feature over the baseline's [lo, hi] range; live
// observations outside the range clamp into the edge bins, which is
// exactly the signal a range shift should produce.
type workloadState struct {
	lo, hi   []float64   // per feature
	base     [][]float64 // normalized baseline mass, feature x bin
	live     [][]uint64  // live counts, feature x bin
	baseN    uint64
	liveN    uint64
	div      float64
	exceeded uint64
	lastAt   time.Time
}

// WorkloadStats is one model's shift picture for /stats and
// /debug/accuracy.
type WorkloadStats struct {
	Features        int       `json:"features"`
	Bins            int       `json:"bins"`
	BaselineSamples uint64    `json:"baseline_samples"`
	LiveSamples     uint64    `json:"live_samples"`
	Divergence      float64   `json:"divergence"`
	Threshold       float64   `json:"threshold"`
	Exceeded        uint64    `json:"exceeded"`
	ShiftAdvised    bool      `json:"shift_advised"`
	LastAt          time.Time `json:"last_sample_at"`
}

// WorkloadMonitor holds the per-model detectors. SetBaseline is called
// by ingest at attach (and again after retraining if the training set
// changed); Observe runs on the Shadow workers; Stats and WriteMetrics
// are scrape-time reads.
type WorkloadMonitor struct {
	cfg    WorkloadConfig
	mu     sync.Mutex
	models map[string]*workloadState
}

// NewWorkloadMonitor builds an empty monitor.
func NewWorkloadMonitor(cfg WorkloadConfig) *WorkloadMonitor {
	return &WorkloadMonitor{cfg: cfg, models: make(map[string]*workloadState)}
}

// SetBaseline captures the training workload snapshot for a model:
// queries are the training/validation query vectors, ts the matching
// thresholds (len(ts) may be 0 if thresholds are unknown, in which case
// only the vector dimensions are profiled). Replaces any previous
// baseline and resets the live side.
func (m *WorkloadMonitor) SetBaseline(model string, queries [][]float64, ts []float64) {
	if len(queries) == 0 {
		return
	}
	dim := len(queries[0])
	features := dim
	withT := len(ts) == len(queries)
	if withT {
		features++
	}
	st := &workloadState{
		lo:    make([]float64, features),
		hi:    make([]float64, features),
		base:  make([][]float64, features),
		live:  make([][]uint64, features),
		baseN: uint64(len(queries)),
	}
	for f := 0; f < features; f++ {
		st.base[f] = make([]float64, workloadBins)
		st.live[f] = make([]uint64, workloadBins)
	}
	feat := func(q []float64, t float64, f int) float64 {
		if f < dim {
			return q[f]
		}
		return t
	}
	for f := 0; f < features; f++ {
		lo, hi := feat(queries[0], tAt(ts, 0), f), feat(queries[0], tAt(ts, 0), f)
		for i := 1; i < len(queries); i++ {
			v := feat(queries[i], tAt(ts, i), f)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		st.lo[f], st.hi[f] = lo, hi
	}
	inc := 1 / float64(len(queries))
	for i, q := range queries {
		for f := 0; f < features; f++ {
			st.base[f][binIndex(feat(q, tAt(ts, i), f), st.lo[f], st.hi[f], workloadBins)] += inc
		}
	}
	m.mu.Lock()
	m.models[model] = st
	m.mu.Unlock()
}

func tAt(ts []float64, i int) float64 {
	if i < len(ts) {
		return ts[i]
	}
	return 0
}

// binIndex maps v onto [0, bins) over the baseline range, clamping
// out-of-range values into the edge bins. A degenerate range (lo == hi)
// puts everything in bin 0.
func binIndex(v, lo, hi float64, bins int) int {
	if hi <= lo {
		return 0
	}
	i := int(float64(bins) * (v - lo) / (hi - lo))
	if i < 0 {
		return 0
	}
	if i >= bins {
		return bins - 1
	}
	return i
}

// Observe feeds one live query into the model's histograms and updates
// the divergence. Models without a baseline are ignored. Runs on the
// Shadow worker goroutines; allocation-free.
func (m *WorkloadMonitor) Observe(model string, q []float64, t float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.models[model]
	if st == nil {
		return
	}
	features := len(st.lo)
	if features != len(q) && features != len(q)+1 {
		return // dimension mismatch: stale baseline, skip
	}
	for f := 0; f < features; f++ {
		v := t
		if f < len(q) {
			v = q[f]
		}
		st.live[f][binIndex(v, st.lo[f], st.hi[f], workloadBins)]++
	}
	st.liveN++
	st.lastAt = time.Now()
	if st.liveN < workloadMinSamples {
		return
	}
	st.div = divergence(st)
	if m.cfg.Threshold > 0 && st.div > m.cfg.Threshold {
		st.exceeded++
	}
}

// divergence is the average per-feature total-variation distance
// between the normalized baseline and live histograms.
func divergence(st *workloadState) float64 {
	if st.liveN == 0 || len(st.base) == 0 {
		return 0
	}
	inv := 1 / float64(st.liveN)
	total := 0.0
	for f := range st.base {
		tv := 0.0
		for b := range st.base[f] {
			d := st.base[f][b] - float64(st.live[f][b])*inv
			if d < 0 {
				d = -d
			}
			tv += d
		}
		total += tv / 2
	}
	return total / float64(len(st.base))
}

func (m *WorkloadMonitor) statsLocked(st *workloadState) WorkloadStats {
	return WorkloadStats{
		Features:        len(st.lo),
		Bins:            workloadBins,
		BaselineSamples: st.baseN,
		LiveSamples:     st.liveN,
		Divergence:      st.div,
		Threshold:       m.cfg.Threshold,
		Exceeded:        st.exceeded,
		ShiftAdvised:    m.cfg.Threshold > 0 && st.div > m.cfg.Threshold,
		LastAt:          st.lastAt,
	}
}

// Stats snapshots every model with a baseline.
func (m *WorkloadMonitor) Stats() map[string]WorkloadStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]WorkloadStats, len(m.models))
	for name, st := range m.models {
		out[name] = m.statsLocked(st)
	}
	return out
}

// ModelStats snapshots one model (zero value, false without a
// baseline).
func (m *WorkloadMonitor) ModelStats(model string) (WorkloadStats, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.models[model]
	if st == nil {
		return WorkloadStats{}, false
	}
	return m.statsLocked(st), true
}

// WriteMetrics emits the workload-shift families: the divergence gauge,
// sample counters, and the exceeded counter per model.
func (m *WorkloadMonitor) WriteMetrics(p *PromWriter) {
	p.Value("selestd_workload_shift_threshold", "Configured divergence threshold (0 = alarm disabled).", "gauge", m.cfg.Threshold)
	stats := m.Stats()
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := stats[name]
		p.Value("selestd_workload_divergence", "Average per-feature total-variation distance between the live query stream and the training workload.",
			"gauge", st.Divergence, "model", name)
		p.Value("selestd_workload_samples_total", "Live queries folded into the workload histograms.", "counter", float64(st.LiveSamples), "model", name)
		p.Value("selestd_workload_shift_exceeded_total", "Live observations whose divergence exceeded the threshold.", "counter", float64(st.Exceeded), "model", name)
	}
}
