package obs

import (
	"math/rand"
	"sync"
	"testing"
)

func baselineQueries(rng *rand.Rand, n, dim int, shift float64) ([][]float64, []float64) {
	qs := make([][]float64, n)
	ts := make([]float64, n)
	for i := range qs {
		q := make([]float64, dim)
		for j := range q {
			q[j] = rng.Float64() + shift
		}
		qs[i] = q
		ts[i] = 0.1 + 0.4*rng.Float64() + shift
	}
	return qs, ts
}

func TestWorkloadNoShiftLowDivergence(t *testing.T) {
	// workloadMinSamples is large enough that the first computed
	// divergence is already stable — a 10-sample histogram against a
	// 2000-sample baseline is mostly sparsity, not shift.
	m := NewWorkloadMonitor(WorkloadConfig{Threshold: 0.5})
	rng := rand.New(rand.NewSource(1))
	qs, ts := baselineQueries(rng, 2000, 3, 0)
	m.SetBaseline("m", qs, ts)
	// Live traffic from the same distribution.
	live, liveT := baselineQueries(rng, 2000, 3, 0)
	for i, q := range live {
		m.Observe("m", q, liveT[i])
	}
	st, ok := m.ModelStats("m")
	if !ok {
		t.Fatal("no stats for model with baseline")
	}
	if st.Features != 4 { // 3 dims + threshold
		t.Fatalf("features = %d, want 4", st.Features)
	}
	if st.LiveSamples != 2000 || st.BaselineSamples != 2000 {
		t.Fatalf("samples = %d/%d", st.LiveSamples, st.BaselineSamples)
	}
	if st.Divergence > 0.1 {
		t.Fatalf("same-distribution divergence = %v, want near 0", st.Divergence)
	}
	if st.ShiftAdvised || st.Exceeded != 0 {
		t.Fatalf("shift advised on identical workload: %+v", st)
	}
}

func TestWorkloadShiftDetected(t *testing.T) {
	m := NewWorkloadMonitor(WorkloadConfig{Threshold: 0.5})
	rng := rand.New(rand.NewSource(2))
	qs, ts := baselineQueries(rng, 1000, 3, 0)
	m.SetBaseline("m", qs, ts)
	// Live traffic shifted entirely out of the baseline range: every
	// observation clamps into the top bin of every feature.
	live, liveT := baselineQueries(rng, 200, 3, 10)
	for i, q := range live {
		m.Observe("m", q, liveT[i])
	}
	st, _ := m.ModelStats("m")
	if st.Divergence < 0.7 {
		t.Fatalf("disjoint-workload divergence = %v, want high", st.Divergence)
	}
	if !st.ShiftAdvised {
		t.Fatal("shift not advised for disjoint workload")
	}
	// Exceeded counts per-observation alarms past workloadMinSamples.
	if st.Exceeded == 0 || st.Exceeded > 200 {
		t.Fatalf("exceeded = %d, want within (0, 200]", st.Exceeded)
	}
}

func TestWorkloadMinSamplesGate(t *testing.T) {
	m := NewWorkloadMonitor(WorkloadConfig{Threshold: 0.01})
	rng := rand.New(rand.NewSource(3))
	qs, ts := baselineQueries(rng, 100, 2, 0)
	m.SetBaseline("m", qs, ts)
	shifted, shiftedT := baselineQueries(rng, workloadMinSamples-1, 2, 10)
	for i, q := range shifted {
		m.Observe("m", q, shiftedT[i])
	}
	st, _ := m.ModelStats("m")
	if st.Divergence != 0 || st.Exceeded != 0 {
		t.Fatalf("divergence computed below workloadMinSamples: %+v", st)
	}
	m.Observe("m", shifted[0], shiftedT[0]) // this sample crosses the gate
	st, _ = m.ModelStats("m")
	if st.Divergence == 0 {
		t.Fatal("divergence still zero past workloadMinSamples")
	}
}

func TestWorkloadZeroThresholdNeverAlarms(t *testing.T) {
	m := NewWorkloadMonitor(WorkloadConfig{})
	rng := rand.New(rand.NewSource(4))
	qs, ts := baselineQueries(rng, 100, 2, 0)
	m.SetBaseline("m", qs, ts)
	live, liveT := baselineQueries(rng, 100, 2, 10)
	for i, q := range live {
		m.Observe("m", q, liveT[i])
	}
	st, _ := m.ModelStats("m")
	if st.Divergence == 0 {
		t.Fatal("divergence should still be computed")
	}
	if st.Exceeded != 0 || st.ShiftAdvised {
		t.Fatalf("threshold 0 must disable the alarm: %+v", st)
	}
}

func TestWorkloadIgnoresUnknownAndMismatched(t *testing.T) {
	m := NewWorkloadMonitor(WorkloadConfig{})
	m.Observe("nobody", []float64{1}, 0.1) // no baseline: ignored
	if _, ok := m.ModelStats("nobody"); ok {
		t.Fatal("stats appeared for model without baseline")
	}
	rng := rand.New(rand.NewSource(5))
	qs, ts := baselineQueries(rng, 50, 3, 0)
	m.SetBaseline("m", qs, ts)
	m.Observe("m", []float64{1, 2, 3, 4, 5}, 0.1) // wrong dimensionality
	st, _ := m.ModelStats("m")
	if st.LiveSamples != 0 {
		t.Fatalf("mismatched-dim observation counted: %+v", st)
	}
}

func TestWorkloadDegenerateRange(t *testing.T) {
	// A constant feature (lo == hi) must not divide by zero; identical
	// live traffic stays at divergence 0.
	m := NewWorkloadMonitor(WorkloadConfig{})
	qs := [][]float64{{5, 1}, {5, 2}, {5, 3}}
	m.SetBaseline("m", qs, []float64{0.1, 0.1, 0.1})
	for i := 0; i < 3*workloadMinSamples; i++ {
		m.Observe("m", qs[i%3], 0.1)
	}
	st, _ := m.ModelStats("m")
	if st.Divergence > 0.2 {
		t.Fatalf("degenerate-range divergence = %v", st.Divergence)
	}
}

func TestWorkloadBaselineNoThresholds(t *testing.T) {
	// Without per-query thresholds only the vector dims are profiled.
	m := NewWorkloadMonitor(WorkloadConfig{})
	m.SetBaseline("m", [][]float64{{1, 2}, {3, 4}}, nil)
	st, _ := m.ModelStats("m")
	if st.Features != 2 {
		t.Fatalf("features = %d, want 2 (no threshold feature)", st.Features)
	}
	m.Observe("m", []float64{1, 2}, 0.5)
	st, _ = m.ModelStats("m")
	if st.LiveSamples != 1 {
		t.Fatalf("live samples = %d", st.LiveSamples)
	}
}

func TestWorkloadConcurrent(t *testing.T) {
	m := NewWorkloadMonitor(WorkloadConfig{Threshold: 0.3})
	rng := rand.New(rand.NewSource(6))
	qs, ts := baselineQueries(rng, 200, 2, 0)
	m.SetBaseline("m", qs, ts)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			live, liveT := baselineQueries(r, 200, 2, 0)
			for i, q := range live {
				m.Observe("m", q, liveT[i])
			}
		}(int64(g + 10))
	}
	for i := 0; i < 50; i++ {
		m.Stats()
	}
	wg.Wait()
	st, _ := m.ModelStats("m")
	if st.LiveSamples != 800 {
		t.Fatalf("live samples = %d, want 800", st.LiveSamples)
	}
}
