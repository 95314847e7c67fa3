package obs

import (
	"maps"
	"slices"
	"sync"
	"time"

	"selnet/internal/metrics"
)

// DriftConfig tunes the online accuracy drift monitor.
type DriftConfig struct {
	// Threshold is the p95 q-error above which a cycle increments the
	// model's exceeded counter; 0 disables the counter.
	Threshold float64
}

// DriftStats is one model's rolling accuracy picture: quantiles over
// the current window plus lifetime cycle/sample/exceeded counters.
type DriftStats struct {
	Cycles   uint64    `json:"cycles"`
	Samples  uint64    `json:"samples"`
	Window   int       `json:"window"`
	P50      float64   `json:"qerror_p50"`
	P95      float64   `json:"qerror_p95"`
	Max      float64   `json:"qerror_max"`
	Exceeded uint64    `json:"exceeded"`
	LastAt   time.Time `json:"last_cycle_at"`
}

type driftWindow struct {
	q     qring
	stats DriftStats
}

// DriftMonitor tracks online estimation accuracy per model: after each
// ingest cycle the pipeline scores the *serving* model against a
// holdout of freshly relabelled queries and feeds the q-errors here.
// The monitor keeps a rolling qerrWindow-sample window per model and publishes
// p50/p95/max quantiles plus an exceeded counter — retraining lag
// becomes visible before users see bad estimates.
//
// Observe runs on the ingest worker goroutine, so the mutex and the
// quantile sort are off the serving path; Stats and WriteMetrics are
// scrape-time reads.
type DriftMonitor struct {
	cfg    DriftConfig
	mu     sync.Mutex
	models map[string]*driftWindow
}

// NewDriftMonitor builds an empty monitor.
func NewDriftMonitor(cfg DriftConfig) *DriftMonitor {
	return &DriftMonitor{cfg: cfg, models: make(map[string]*driftWindow)}
}

// Observe scores one cycle's holdout: parallel prediction and
// ground-truth slices for model. It pushes the q-errors into the
// model's rolling window, recomputes the quantiles, and returns the
// updated stats. Empty or mismatched slices are ignored.
func (d *DriftMonitor) Observe(model string, pred, label []float64) DriftStats {
	n := len(pred)
	if n == 0 || n != len(label) {
		return d.ModelStats(model)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.models[model]
	if w == nil {
		w = &driftWindow{q: newQring()}
		d.models[model] = w
	}
	for i := 0; i < n; i++ {
		w.q.push(metrics.QError(pred[i], label[i], qerrFloor))
	}
	qs := w.q.quantiles(0.5, 0.95, 1)
	w.stats.P50, w.stats.P95, w.stats.Max = qs[0], qs[1], qs[2]
	w.stats.Window = w.q.n
	w.stats.Cycles++
	w.stats.Samples = w.q.count
	w.stats.LastAt = time.Now()
	if d.cfg.Threshold > 0 && w.stats.P95 > d.cfg.Threshold {
		w.stats.Exceeded++
	}
	return w.stats
}

// ModelStats returns one model's current stats (zero value if the
// model has never been observed).
func (d *DriftMonitor) ModelStats(model string) DriftStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	if w := d.models[model]; w != nil {
		return w.stats
	}
	return DriftStats{}
}

// Stats snapshots every observed model.
func (d *DriftMonitor) Stats() map[string]DriftStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]DriftStats, len(d.models))
	for name, w := range d.models {
		out[name] = w.stats
	}
	return out
}

// WriteMetrics emits the drift gauges and counters: per-model rolling
// q-error quantiles, sample/cycle totals, and the exceeded counter.
func (d *DriftMonitor) WriteMetrics(p *PromWriter) {
	p.Value("selestd_drift_qerror_threshold", "Configured p95 q-error threshold (0 = alarm disabled).", "gauge", d.cfg.Threshold)
	stats := d.Stats()
	for _, name := range slices.Sorted(maps.Keys(stats)) {
		st := stats[name]
		for _, q := range []struct {
			label string
			v     float64
		}{{"p50", st.P50}, {"p95", st.P95}, {"max", st.Max}} {
			p.Value("selestd_drift_qerror", "Rolling q-error quantile of the serving model against fresh ground truth.",
				"gauge", q.v, "model", name, "quantile", q.label)
		}
		p.Value("selestd_drift_window_size", "Q-error samples currently in the rolling window.", "gauge", float64(st.Window), "model", name)
		p.Value("selestd_drift_cycles_total", "Ingest cycles scored for drift.", "counter", float64(st.Cycles), "model", name)
		p.Value("selestd_drift_samples_total", "Holdout queries scored for drift.", "counter", float64(st.Samples), "model", name)
		p.Value("selestd_drift_exceeded_total", "Cycles whose rolling p95 q-error exceeded the threshold.", "counter", float64(st.Exceeded), "model", name)
	}
}
