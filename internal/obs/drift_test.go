package obs

import (
	"strings"
	"testing"
	"time"
)

func TestDriftMonitorObserve(t *testing.T) {
	d := NewDriftMonitor(DriftConfig{Threshold: 3})
	// Perfect estimates: every q-error is 1.
	st := d.Observe("m", []float64{10, 20, 30}, []float64{10, 20, 30})
	if st.P50 != 1 || st.P95 != 1 || st.Max != 1 {
		t.Fatalf("perfect quantiles %+v", st)
	}
	if st.Cycles != 1 || st.Samples != 3 || st.Exceeded != 0 || st.Window != 3 {
		t.Fatalf("counters %+v", st)
	}

	// A badly drifted cycle: a window's worth of q-errors of 10.
	pred, label := make([]float64, qerrWindow), make([]float64, qerrWindow)
	for i := range pred {
		pred[i], label[i] = 100, 10
	}
	st = d.Observe("m", pred, label)
	if st.Max != 10 {
		t.Fatalf("max %v, want 10", st.Max)
	}
	if st.P95 <= 3 {
		t.Fatalf("p95 %v, want above threshold", st.P95)
	}
	if st.Exceeded != 1 {
		t.Fatalf("exceeded %d, want 1", st.Exceeded)
	}
	if st.Window != qerrWindow { // 3 + qerrWindow observations, capped at the window
		t.Fatalf("window %d, want %d", st.Window, qerrWindow)
	}
	if st.Samples != 3+qerrWindow {
		t.Fatalf("samples %d, want %d", st.Samples, 3+qerrWindow)
	}
	if st.LastAt.IsZero() || time.Since(st.LastAt) > time.Minute {
		t.Fatalf("last_cycle_at %v", st.LastAt)
	}
}

func TestDriftMonitorRollingWindow(t *testing.T) {
	d := NewDriftMonitor(DriftConfig{})
	d.Observe("m", []float64{1000}, []float64{1}) // q-error 1000
	for i := 0; i < qerrWindow; i++ {
		d.Observe("m", []float64{5}, []float64{5}) // q-error 1
	}
	st := d.ModelStats("m")
	if st.Max != 1 {
		t.Fatalf("max %v: the old outlier should have rolled out of the window", st.Max)
	}
}

func TestDriftMonitorPerModel(t *testing.T) {
	d := NewDriftMonitor(DriftConfig{})
	d.Observe("a", []float64{2}, []float64{1})
	d.Observe("b", []float64{8}, []float64{1})
	all := d.Stats()
	if len(all) != 2 || all["a"].Max != 2 || all["b"].Max != 8 {
		t.Fatalf("stats %+v", all)
	}
	if st := d.ModelStats("missing"); st.Cycles != 0 {
		t.Fatalf("missing model stats %+v", st)
	}
}

func TestDriftMonitorIgnoresBadInput(t *testing.T) {
	d := NewDriftMonitor(DriftConfig{})
	d.Observe("m", nil, nil)
	d.Observe("m", []float64{1}, []float64{1, 2})
	if st := d.ModelStats("m"); st.Cycles != 0 {
		t.Fatalf("bad input was counted: %+v", st)
	}
}

func TestDriftMonitorWriteMetrics(t *testing.T) {
	d := NewDriftMonitor(DriftConfig{Threshold: 2})
	d.Observe("m", []float64{30}, []float64{10})
	var b strings.Builder
	pw := NewPromWriter(&b)
	d.WriteMetrics(pw)
	pw.Flush()
	out := b.String()
	for _, want := range []string{
		"selestd_drift_qerror_threshold 2",
		`selestd_drift_qerror{model="m",quantile="p50"} 3`,
		`selestd_drift_qerror{model="m",quantile="p95"} 3`,
		`selestd_drift_qerror{model="m",quantile="max"} 3`,
		`selestd_drift_cycles_total{model="m"} 1`,
		`selestd_drift_samples_total{model="m"} 1`,
		`selestd_drift_exceeded_total{model="m"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, out)
		}
	}
}

func TestBuildInfo(t *testing.T) {
	bi := ReadBuildInfo(time.Now().Add(-2 * time.Second))
	if bi.GoVersion == "" {
		t.Fatal("empty go version")
	}
	if bi.GOMAXPROCS < 1 {
		t.Fatalf("gomaxprocs %d", bi.GOMAXPROCS)
	}
	if bi.UptimeSeconds < 1.9 {
		t.Fatalf("uptime %v", bi.UptimeSeconds)
	}
	if bi.Version == "" {
		t.Fatal("empty version")
	}
}
