package obs

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

func TestThresholdBucket(t *testing.T) {
	cases := []struct {
		t, tmax float64
		want    int
	}{
		{0.05, 1, 0},
		{0.10, 1, 0},
		{0.11, 1, 1},
		{0.25, 1, 1},
		{0.40, 1, 2},
		{0.50, 1, 2},
		{0.75, 1, 3},
		{1.00, 1, 3},
		{1.50, 1, 4},
		{0.3, 0, NumThresholdBuckets - 1},  // unknown t_max
		{0.3, -1, NumThresholdBuckets - 1}, // negative t_max
	}
	for _, c := range cases {
		if got := ThresholdBucket(c.t, c.tmax); got != c.want {
			t.Errorf("ThresholdBucket(%v, %v) = %d, want %d", c.t, c.tmax, got, c.want)
		}
	}
	if got := ThresholdBucketLabel(0); got != "0-10%" {
		t.Errorf("label 0 = %q", got)
	}
	if got := ThresholdBucketLabel(-1); got != "unknown" {
		t.Errorf("label -1 = %q", got)
	}
	if got := ThresholdBucketLabel(NumThresholdBuckets); got != "unknown" {
		t.Errorf("label out of range = %q", got)
	}
}

func TestQRingWraparound(t *testing.T) {
	r := qring{ring: make([]float64, 4)}
	for i := 1; i <= 10; i++ {
		r.push(float64(i))
	}
	if r.count != 10 {
		t.Fatalf("count = %d, want 10", r.count)
	}
	if r.n != 4 {
		t.Fatalf("window n = %d, want 4", r.n)
	}
	// Window holds the last 4 pushes {7,8,9,10}: the max quantile must be
	// 10 and the min 7 — earlier values must have been displaced.
	qs := r.quantiles(0, 1)
	if qs[0] != 7 || qs[1] != 10 {
		t.Fatalf("quantiles(0,1) = %v, want [7 10]", qs)
	}
}

func TestAccuracyMonitorBucketsAndPartitions(t *testing.T) {
	m := NewAccuracyMonitor()
	// Two samples in bucket 0 / partition 0, one in bucket 3 / partition 2.
	m.Observe("m", AccuracySample{Bucket: 0, Partition: 0, Estimate: 10, Truth: 10})
	m.Observe("m", AccuracySample{Bucket: 0, Partition: 0, Estimate: 20, Truth: 10})
	m.Observe("m", AccuracySample{Bucket: 3, Partition: 2, Estimate: 5, Truth: 50})

	st, ok := m.ModelStats("m", 0)
	if !ok {
		t.Fatal("ModelStats returned no stats")
	}
	if st.Samples != 3 || st.Window != 3 {
		t.Fatalf("samples=%d window=%d, want 3/3", st.Samples, st.Window)
	}
	if st.Max != 10 {
		t.Fatalf("overall max q-error = %v, want 10", st.Max)
	}
	// Empty buckets must be omitted, populated ones present.
	if len(st.Buckets) != 2 {
		t.Fatalf("buckets = %v, want exactly 2 populated", st.Buckets)
	}
	b0, ok := st.Buckets["0-10%"]
	if !ok || b0.Count != 2 || b0.Max != 2 {
		t.Fatalf("bucket 0-10%% = %+v ok=%v, want count 2 max 2", b0, ok)
	}
	b3, ok := st.Buckets["50-100%"]
	if !ok || b3.Count != 1 || b3.Max != 10 {
		t.Fatalf("bucket 50-100%% = %+v ok=%v, want count 1 max 10", b3, ok)
	}
	if _, present := st.Buckets["10-25%"]; present {
		t.Fatal("empty bucket 10-25% reported")
	}
	// Partition breakdowns keyed by id.
	if len(st.Partitions) != 2 {
		t.Fatalf("partitions = %v, want 2", st.Partitions)
	}
	if p0 := st.Partitions["0"]; p0.Count != 2 {
		t.Fatalf("partition 0 = %+v, want count 2", p0)
	}
	if p2 := st.Partitions["2"]; p2.Count != 1 || p2.Max != 10 {
		t.Fatalf("partition 2 = %+v, want count 1 max 10", p2)
	}
}

func TestAccuracyMonitorNegativePartitionOmitted(t *testing.T) {
	m := NewAccuracyMonitor()
	m.Observe("m", AccuracySample{Bucket: 0, Partition: -1, Estimate: 1, Truth: 1})
	st, _ := m.ModelStats("m", 0)
	if len(st.Partitions) != 0 {
		t.Fatalf("partitions = %v, want none for unpartitioned samples", st.Partitions)
	}
}

func TestAccuracyMonitorEpsilonFloor(t *testing.T) {
	// Estimate 0 vs truth 0 would be 0/0; the floor makes it 1.
	m := NewAccuracyMonitor()
	m.Observe("m", AccuracySample{Estimate: 0, Truth: 0})
	st, _ := m.ModelStats("m", 0)
	if st.Max != 1 {
		t.Fatalf("q-error of 0-vs-0 = %v, want 1 (floor)", st.Max)
	}
	// Counts below the floor count as the floor: 0.25 vs 4 is 4, not 16.
	m2 := NewAccuracyMonitor()
	m2.Observe("m", AccuracySample{Estimate: 0.25, Truth: 4})
	st2, _ := m2.ModelStats("m", 0)
	if st2.Max != 4 {
		t.Fatalf("q-error of 0.25-vs-4 = %v, want 4 (floor)", st2.Max)
	}
}

func TestAccuracyMonitorWorstN(t *testing.T) {
	m := NewAccuracyMonitor()
	// worstN+4 samples with q-errors 2..worstN+5, in an order that is
	// neither ascending nor descending; the worst worstN must be
	// {worstN+5, ..., 6}.
	const n = worstN + 4
	for k := 0; k < n; k++ {
		i := 2 + (k*7)%n
		m.Observe("m", AccuracySample{
			TraceID:  uint64(i),
			Estimate: float64(i),
			Truth:    1,
		})
	}
	st, _ := m.ModelStats("m", 0)
	if len(st.Worst) != worstN {
		t.Fatalf("worst len = %d, want %d", len(st.Worst), worstN)
	}
	for i, w := range st.Worst {
		if want := float64(n + 1 - i); w.QError != want {
			t.Fatalf("worst[%d].QError = %v, want %v (worst=%+v)", i, w.QError, want, st.Worst)
		}
		if w.TraceID != FormatTraceID(uint64(w.QError)) {
			t.Fatalf("worst[%d] trace id %q does not match sample %v", i, w.TraceID, w.QError)
		}
	}
	// worstLimit caps the list.
	st, _ = m.ModelStats("m", 1)
	if len(st.Worst) != 1 || st.Worst[0].QError != n+1 {
		t.Fatalf("worstLimit=1 => %+v, want single entry with q-error %d", st.Worst, n+1)
	}
}

func TestAccuracyMonitorConcurrent(t *testing.T) {
	m := NewAccuracyMonitor()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.Observe(fmt.Sprintf("m%d", g%2), AccuracySample{
					Bucket:    i % NumThresholdBuckets,
					Partition: i % 3,
					Estimate:  float64(i + 1),
					Truth:     float64(200 - i),
				})
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		m.Stats(0)
	}
	wg.Wait()
	st := m.Stats(0)
	if len(st) != 2 {
		t.Fatalf("models = %d, want 2", len(st))
	}
	for name, s := range st {
		if s.Samples != 400 {
			t.Fatalf("%s samples = %d, want 400", name, s.Samples)
		}
	}
}

// exactOracle is a test oracle with a fixed answer.
type exactOracle struct{ v float64 }

func (o exactOracle) TrueSelectivity([]float64, float64) (float64, string) { return o.v, "exact" }

func TestShadowOfferDeterministic(t *testing.T) {
	sh := NewShadow(ShadowConfig{SampleRate: 0.5})
	defer sh.Close()
	q := []float64{1, 2, 3}
	// Same trace ID must decide the same way every time.
	first := sh.Offer("m", 42, 0, q, 0.5, 1, 0.1)
	for i := 0; i < 10; i++ {
		if got := sh.Offer("m", 42, 0, q, 0.5, 1, 0.1); got != first {
			t.Fatal("sampling decision not deterministic per trace ID")
		}
	}
	// Rate 0.5 over many IDs should sample roughly half. More are
	// sampled than the queue holds, so a sampled request counts whether
	// it was enqueued or dropped.
	decided := func() uint64 { st := sh.Stats(); return st.Sampled + st.Dropped }
	before := decided()
	const n = 2000
	for id := uint64(1); id <= n; id++ {
		sh.Offer("m", id, 0, q, 0.5, 1, 0.1)
	}
	sampled := decided() - before
	if sampled < n/3 || sampled > 2*n/3 {
		t.Fatalf("rate 0.5 sampled %d of %d", sampled, n)
	}
}

func TestShadowRateExtremes(t *testing.T) {
	off := NewShadow(ShadowConfig{SampleRate: 0})
	defer off.Close()
	if off.Enabled() {
		t.Fatal("rate 0 must disable the sampler")
	}
	if off.Offer("m", 1, 0, []float64{1}, 0.1, 1, 0) {
		t.Fatal("rate 0 sampled a request")
	}
	var nilShadow *Shadow
	if nilShadow.Enabled() {
		t.Fatal("nil shadow reported enabled")
	}
	if nilShadow.Offer("m", 1, 0, []float64{1}, 0.1, 1, 0) {
		t.Fatal("nil shadow sampled a request")
	}

	all := NewShadow(ShadowConfig{SampleRate: 1})
	defer all.Close()
	for id := uint64(1); id <= 100; id++ {
		if !all.Offer("m", id, 0, []float64{1}, 0.1, 1, 0) {
			t.Fatalf("rate 1 skipped trace %d", id)
		}
	}
}

func TestShadowSaltVariesWithinRequest(t *testing.T) {
	sh := NewShadow(ShadowConfig{SampleRate: 0.5})
	defer sh.Close()
	// Across one batch request (fixed trace ID, varying salt) decisions
	// must not be all-or-nothing.
	q := []float64{1}
	decisions := map[bool]int{}
	for i := uint64(1); i <= 256; i++ {
		decisions[sh.Offer("m", 7, i, q, 0.5, 1, 0)]++
	}
	if decisions[true] == 0 || decisions[false] == 0 {
		t.Fatalf("salted batch decisions degenerate: %v", decisions)
	}
}

func TestShadowDropCounter(t *testing.T) {
	// With the worker stalled behind a slow first sample, overflow
	// past shadowQueueDepth must drop, not block.
	block := make(chan struct{})
	sh := NewShadow(ShadowConfig{SampleRate: 1})
	sh.SetOracle("m", blockingOracle{ch: block})
	q := []float64{1}
	// First offer is consumed by the worker and blocks in the oracle;
	// the next shadowQueueDepth fill the queue; subsequent ones must
	// drop. Allow a few
	// tries for the worker to pick up the first sample.
	deadline := time.Now().Add(2 * time.Second)
	dropped := false
	for time.Now().Before(deadline) {
		sh.Offer("m", 1, 0, q, 0.1, 1, 0)
		if sh.Stats().Dropped > 0 {
			dropped = true
			break
		}
	}
	close(block)
	sh.Close()
	if !dropped {
		t.Fatal("full queue never dropped")
	}
	st := sh.Stats()
	if st.Dropped == 0 {
		t.Fatalf("dropped = %d, want > 0", st.Dropped)
	}
}

type blockingOracle struct{ ch chan struct{} }

func (o blockingOracle) TrueSelectivity([]float64, float64) (float64, string) {
	<-o.ch
	return 0, "exact"
}

func TestShadowScoresThroughOracle(t *testing.T) {
	sh := NewShadow(ShadowConfig{SampleRate: 1})
	acc := sh.Accuracy()
	sh.SetOracle("m", exactOracle{v: 100})
	sh.SetLocate(func(model string, x []float64, t float64) (int, bool) { return 3, true })
	q := []float64{1, 2}
	for id := uint64(1); id <= 32; id++ {
		if !sh.Offer("m", id, 0, q, 0.05, 1, 200) {
			t.Fatalf("offer %d rejected", id)
		}
	}
	sh.Close() // drains the queue before returning
	st, ok := acc.ModelStats("m", 0)
	if !ok || st.Samples != 32 {
		t.Fatalf("scored samples = %d ok=%v, want 32", st.Samples, ok)
	}
	if st.Max != 2 { // 200 vs 100
		t.Fatalf("q-error = %v, want 2", st.Max)
	}
	if _, okB := st.Buckets["0-10%"]; !okB {
		t.Fatalf("bucket breakdown missing: %v", st.Buckets)
	}
	if p, okP := st.Partitions["3"]; !okP || p.Count != 32 {
		t.Fatalf("partition attribution missing: %v", st.Partitions)
	}
	if len(st.Worst) == 0 || st.Worst[0].Oracle != "exact" {
		t.Fatalf("worst list = %+v, want oracle method retained", st.Worst)
	}
	ss := sh.Stats()
	if ss.Sampled != 32 || ss.Oracles["exact"] != 32 {
		t.Fatalf("sampler stats = %+v", ss)
	}
}

func TestShadowNoOracleCounted(t *testing.T) {
	sh := NewShadow(ShadowConfig{SampleRate: 1})
	for id := uint64(1); id <= 8; id++ {
		sh.Offer("unknown", id, 0, []float64{1}, 0.1, 1, 0)
	}
	sh.Close()
	if st := sh.Stats(); st.NoOracle != 8 {
		t.Fatalf("no_oracle = %d, want 8", st.NoOracle)
	}
}

func TestShadowCloseDrains(t *testing.T) {
	sh := NewShadow(ShadowConfig{SampleRate: 1})
	acc := sh.Accuracy()
	sh.SetOracle("m", exactOracle{v: 1})
	for id := uint64(1); id <= 500; id++ {
		sh.Offer("m", id, 0, []float64{1}, 0.1, 1, 1)
	}
	sampled := sh.Stats().Sampled
	sh.Close()
	if sh.Offer("m", 1000, 0, []float64{1}, 0.1, 1, 1) {
		t.Fatal("offer accepted after Close")
	}
	st, _ := acc.ModelStats("m", 0)
	if st.Samples != sampled {
		t.Fatalf("drained %d of %d enqueued samples", st.Samples, sampled)
	}
	sh.Close() // idempotent
}

func TestShadowSpillLargeQueries(t *testing.T) {
	sh := NewShadow(ShadowConfig{SampleRate: 1})
	var got []float64
	var mu sync.Mutex
	sh.SetOracle("m", oracleFunc(func(x []float64, t float64) (float64, string) {
		mu.Lock()
		got = append([]float64(nil), x...)
		mu.Unlock()
		return 1, "exact"
	}))
	q := make([]float64, 100) // beyond the inline capacity
	for i := range q {
		q[i] = float64(i)
	}
	sh.Offer("m", 1, 0, q, 0.1, 1, 1)
	sh.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 100 || got[99] != 99 {
		t.Fatalf("oracle saw %d dims (last %v), want the spilled 100-dim query", len(got), got[len(got)-1:])
	}
}

type oracleFunc func(x []float64, t float64) (float64, string)

func (f oracleFunc) TrueSelectivity(x []float64, t float64) (float64, string) { return f(x, t) }

func TestMix64Distribution(t *testing.T) {
	// Sequential inputs must spread across the 64-bit range: check that
	// the top bit is set roughly half the time.
	top := 0
	const n = 10000
	for i := uint64(0); i < n; i++ {
		if Mix64(i)&(1<<63) != 0 {
			top++
		}
	}
	if top < n/3 || top > 2*n/3 {
		t.Fatalf("top bit set %d of %d times", top, n)
	}
	if Mix64(1) == Mix64(2) {
		t.Fatal("mix64 collision on adjacent inputs")
	}
	if math.Abs(float64(Mix64(7))-float64(Mix64(7))) != 0 {
		t.Fatal("mix64 not deterministic")
	}
}
