package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"selnet/internal/distance"
	"selnet/internal/vecdata"
)

func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileNearestRank(t *testing.T) {
	asc := ramp(100)
	for _, c := range []struct{ q, want float64 }{{0.50, 50}, {0.90, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(asc, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing must be NaN")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		label string
	}{{99, ""}, {100, "p90"}, {999, "p90"}, {1000, "p99"}, {9999, "p99"}, {10000, "p99.9"}} {
		got, ok := tailPercentile(ramp(c.n))
		if ok != (c.label != "") || got.Label != c.label {
			t.Errorf("n=%d: tail %q (ok=%v), want %q", c.n, got.Label, ok, c.label)
		}
		if ok {
			// "Beyond" means strictly above the reported value.
			if beyond := c.n - int(got.Value); beyond < 10 {
				t.Errorf("n=%d: %s=%v leaves only %d samples beyond", c.n, got.Label, got.Value, beyond)
			}
		}
	}
}

func TestMedianOfRounds(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 100, 2}); got != 3 {
		t.Errorf("even median = %v, want 3", got)
	}
	// One disturbed round out of five does not move the workload's value.
	if got := median([]float64{2500, 2510, 9000, 2490, 2505}); got != 2505 {
		t.Errorf("median of rounds = %v, want 2505", got)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := spread(ramp(10)); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([10, 11, 13, 20], n=4) == [10.25, 12.0, 18.25]
	if got := spread([]float64{20, 10, 13, 11}); math.Abs(got-8.0/12.0) > 1e-12 {
		t.Errorf("spread = %v, want 8/12", got)
	}
}

func TestNextStep(t *testing.T) {
	now := time.Unix(1000, 0)
	ms := time.Millisecond
	for _, c := range []struct {
		name      string
		due, poll time.Duration // relative to now
		want      step
		wait      time.Duration
	}{
		{"batch due beats a due poll", -5 * ms, -20 * ms, stepSend, 0},
		{"batch due exactly now", 0, 10 * ms, stepSend, 0},
		{"poll fills the gap", 40 * ms, -1 * ms, stepPoll, 0},
		{"sleep until the batch", 7 * ms, 20 * ms, stepSleep, 7 * ms},
		{"sleep until the poll", 70 * ms, 20 * ms, stepSleep, 20 * ms},
	} {
		got, wait := nextStep(now, now.Add(c.due), now.Add(c.poll))
		if got != c.want || wait != c.wait {
			t.Errorf("%s: got (%v, %v), want (%v, %v)", c.name, got, wait, c.want, c.wait)
		}
	}
}

// A stalled daemon must show up in the batches that were due during the
// stall, which an open loop times from their due time.
func TestUpdaterTimesFromDueTime(t *testing.T) {
	const interval, stall = 40 * time.Millisecond, 200 * time.Millisecond
	var seq atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/stats" {
			fmt.Fprintf(w, `{"ingest":{"ct":{"applied_seq":%d}}}`, seq.Load())
			return
		}
		n := seq.Add(1)
		if n == 1 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"seq":%d}`, n)
	}))
	defer srv.Close()

	c := newConn(srv.URL)
	defer c.close()
	start := time.Now()
	u := &updater{
		c: c, path: "/v1/models/ct/update", batches: make([]updateBatch, 4),
		start: start, interval: interval, from: start, to: start.Add(time.Hour), led: &ledger{model: "ct"},
	}
	for i := range u.batches {
		u.batches[i].body = []byte(`{"insert":[[1]]}`)
	}
	if err := u.run(start.Add(4*interval), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if len(u.recs) != 4 {
		t.Fatalf("sent %d batches, want 4", len(u.recs))
	}
	for i, r := range u.recs {
		if want := start.Add(time.Duration(i) * interval); !r.due.Equal(want) {
			t.Errorf("batch %d due %v, want %v", i, r.due.Sub(start), want.Sub(start))
		}
		if r.visible < r.ack {
			t.Errorf("batch %d visible (%v) before acknowledged (%v)", i, r.visible, r.ack)
		}
	}
	// Batch 1 was due 40ms in but the connection was stalled until 200ms:
	// its own service time is microseconds, its latency from due is not.
	if got, min := u.recs[1].ack, stall-interval; got < min {
		t.Errorf("batch 1 ack %v, want at least %v: latency must count from the due time", got, min)
	}
	if got, min := u.recs[1].late, stall-interval-5*time.Millisecond; got < min {
		t.Errorf("batch 1 lateness %v, want about %v", got, stall-interval)
	}
	if u.led.applied != 4 {
		t.Errorf("ledger saw applied_seq %d, want 4", u.led.applied)
	}
}

// testFixtures is a small data set with the fixtures' shape and no
// trained model.
func testFixtures() *fixtures {
	rng := rand.New(rand.NewSource(5))
	db := vecdata.SyntheticFasttext(rng, 300, 6, distance.Euclidean)
	wl := vecdata.GeometricWorkload(rng, db, 12, fxThresholds)
	return &fixtures{db: db, split: &vecdata.SplitWorkload{TMax: wl.TMax, Test: wl.Queries}}
}

func streamBytes(s *stream, n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		b.Write(s.at(i).body)
	}
	return b.Bytes()
}

func TestStreamsFollowTheSeed(t *testing.T) {
	fx := testFixtures()
	for _, w := range workloads {
		a := w.build(fx, streamRNG(7, w.name), w.model)
		b := w.build(fx, streamRNG(7, w.name), w.model)
		c := w.build(fx, streamRNG(8, w.name), w.model)
		n := 300
		if len(a.reqs[0].ts) > 1 {
			n = 4 // batch bodies are large
		}
		if !bytes.Equal(streamBytes(a, n), streamBytes(b, n)) {
			t.Errorf("%s: equal seeds gave different request streams", w.name)
		}
		if bytes.Equal(streamBytes(a, n), streamBytes(c, n)) {
			t.Errorf("%s: different seeds gave the same request stream", w.name)
		}
	}
	hot := hotPoints(fx, streamRNG(7, "point_hot"), "ct")
	if len(hot.reqs) != hotPairs {
		t.Fatalf("point_hot has %d keys, want %d", len(hot.reqs), hotPairs)
	}
	if !reflect.DeepEqual(hot.order, hotPoints(fx, streamRNG(7, "point_hot"), "ct").order) {
		t.Error("equal seeds gave different Zipf draws")
	}
	// Zipf(1.1): the most popular key alone takes a large share, and most
	// keys are drawn rarely or never.
	counts := map[int32]int{}
	for _, k := range hot.order {
		counts[k]++
	}
	top := 0
	for _, n := range counts {
		top = max(top, n)
	}
	if share := float64(top) / float64(len(hot.order)); share < 0.05 || share > 0.5 {
		t.Errorf("most popular key has share %v of draws, not Zipf(1.1)-like", share)
	}

	ua := updateBatches(fx.db, streamRNG(7, "u"), 20)
	ub := updateBatches(fx.db, streamRNG(7, "u"), 20)
	uc := updateBatches(fx.db, streamRNG(8, "u"), 20)
	if !bytes.Equal(ua[19].body, ub[19].body) || bytes.Equal(ua[19].body, uc[19].body) {
		t.Error("update batches do not follow the seed")
	}
	// Deletes name vectors an earlier batch inserted, each at most once.
	inserted, deleted := map[string]bool{}, map[string]bool{}
	for i, b := range ua {
		for _, v := range b.del {
			k := fmt.Sprint(v)
			if !inserted[k] || deleted[k] {
				t.Fatalf("batch %d deletes a vector that is not live", i)
			}
			deleted[k] = true
		}
		for _, v := range b.insert {
			inserted[fmt.Sprint(v)] = true
		}
		if i > 0 && (len(b.insert) != updateInserts || len(b.del) != updateDeletes) {
			t.Fatalf("batch %d has %d inserts and %d deletes", i, len(b.insert), len(b.del))
		}
	}
	mirror := fx.db.Clone()
	for i := range ua {
		applyToMirror(mirror, &ua[i])
	}
	if want := fx.db.Size() + 20*updateInserts - 19*updateDeletes; mirror.Size() != want {
		t.Errorf("mirror holds %d vectors after 20 batches, want %d", mirror.Size(), want)
	}
}

func TestParseProc(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields.
	stat := "4242 (sel estd) (x)) S 1 4242 4242 0 -1 4194304 1500 0 0 0 731 269 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615"
	cpu, err := parseProcStat(stat)
	if err != nil || cpu != 10*time.Second {
		t.Errorf("parseProcStat = %v, %v; want 10s (731+269 ticks)", cpu, err)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 1 1 0 -1 0 0 0 0 0 a b 0 0"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) accepted", bad)
		}
	}
	status := "Name:\tselestd\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n"
	mb, err := parseVmHWM(status)
	if err != nil || mb != 50 {
		t.Errorf("parseVmHWM = %v, %v; want 50 MiB", mb, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("parseVmHWM accepted a status without VmHWM")
	}
	steal, total, err := parseSteal("cpu  100 5 20 800 10 1 4 60 0 0\ncpu0 50 2 10 400 5 0 2 30 0 0\n")
	if err != nil || steal != 60 || total != 1000 {
		t.Errorf("parseSteal = %d of %d, %v; want 60 of 1000", steal, total, err)
	}
	if _, _, err := parseSteal("intr 1 2 3\n"); err == nil {
		t.Error("parseSteal accepted a file without the cpu line")
	}
	self, err := readUsage(os.Getpid())
	if err != nil || self.peakRSS <= 0 {
		t.Errorf("readUsage(self) = %+v, %v", self, err)
	}
}

func TestParseRouteTime(t *testing.T) {
	text := `# TYPE selestd_http_request_duration_seconds histogram
selestd_http_request_duration_seconds_bucket{route="/v1/estimate",le="+Inf"} 40
selestd_http_request_duration_seconds_sum{route="/v1/estimate"} 0.09125
selestd_http_request_duration_seconds_count{route="/v1/estimate"} 40
selestd_http_request_duration_seconds_sum{route="/v1/estimate/batch"} 1.5
selestd_http_request_duration_seconds_count{route="/v1/estimate/batch"} 3
`
	rt, err := parseRouteTime(text, "/v1/estimate")
	if err != nil || rt.count != 40 || rt.seconds != 0.09125 {
		t.Errorf("parseRouteTime(/v1/estimate) = %+v, %v; want 40 requests in 0.09125 s", rt, err)
	}
	if rt, err := parseRouteTime(text, "/v1/estimate/batch"); err != nil || rt.count != 3 || rt.seconds != 1.5 {
		t.Errorf("parseRouteTime(/v1/estimate/batch) = %+v, %v; want 3 requests in 1.5 s", rt, err)
	}
	if _, err := parseRouteTime(text, "/v1/models"); err == nil {
		t.Error("parseRouteTime accepted a route the text does not hold")
	}
}

// The steal filter: a run stops at its planned trials when they are
// clean, makes up for disturbed ones only while that can still pay, and
// leaves them out of the medians only when enough clean ones remain.
func TestTrialSelection(t *testing.T) {
	run := func(want int, disturbed ...bool) (made int, measured []bool) {
		clean := 0
		for ; moreTrials(want, made, clean); made++ {
			if !disturbed[made] {
				clean++
			}
		}
		for _, d := range disturbed[:made] {
			measured = append(measured, isMeasured(d, want, clean))
		}
		return made, measured
	}
	const o, x = false, true // a clean trial, a disturbed one
	for _, c := range []struct {
		name      string
		want      int
		disturbed []bool
		made      int
		measured  []bool
	}{
		{"all clean", 5, []bool{o, o, o, o, o, o, o, o}, 5, []bool{true, true, true, true, true}},
		{"one disturbed is made up for", 5, []bool{o, x, o, o, o, o, o, o}, 6, []bool{true, false, true, true, true, true}},
		{"at most three extra", 5, []bool{o, x, x, o, o, x, o, x}, 8, []bool{true, false, false, true, true, false, true, false}},
		{"two clean cannot carry the run: stop, measure everything", 5, []bool{x, o, x, x, o, o, o, o}, 5, []bool{true, true, true, true, true}},
		{"all disturbed", 5, []bool{x, x, x, x, x, x, x, x}, 5, []bool{true, true, true, true, true}},
		{"traced run of two", 2, []bool{o, x, o, o, o}, 2, []bool{true, true}},
	} {
		made, measured := run(c.want, c.disturbed...)
		if made != c.made || !reflect.DeepEqual(measured, c.measured) {
			t.Errorf("%s: made %d trials, measured %v; want %d, %v", c.name, made, measured, c.made, c.measured)
		}
	}
}

func statsSnapshot(js string) *statsDoc {
	var s statsDoc
	if err := json.Unmarshal([]byte(js), &s); err != nil {
		panic(err)
	}
	return &s
}

func TestLedgerDifferencesAcrossSwapsAndCompaction(t *testing.T) {
	l := &ledger{model: "ct"}
	// Baseline: nothing before the first snapshot counts.
	l.observe(statsSnapshot(`{"requests":100,"cache":{"hits":10,"misses":90},
		"models":[{"name":"other","generation":9,"batcher":{"requests":999,"batches":999}},
		          {"name":"ct","generation":3,"batcher":{"requests":90,"batches":80,"timeouts":70},"plans":{"compiles":2,"drops":1}}],
		"ingest":{"ct":{"applied_seq":5,"batches_applied":5,"retrained":2,"journaled_batches":5,"journal_syncs":5,"journal_bytes":50000}},
		"kernels":[{"nanos":1000},{"nanos":500}]}`))
	if l.sum != (counters{}) {
		t.Fatalf("the first snapshot is the baseline, got %v", l.sum)
	}
	// Same generation: plain differences.
	l.observe(statsSnapshot(`{"requests":150,"cache":{"hits":15,"misses":135},
		"models":[{"name":"ct","generation":3,"batcher":{"requests":140,"batches":120,"timeouts":100},"plans":{"compiles":2,"drops":1}}],
		"ingest":{"ct":{"applied_seq":8,"batches_applied":8,"retrained":3,"journaled_batches":9,"journal_syncs":9,"journal_bytes":90000}},
		"kernels":[{"nanos":1600},{"nanos":900}]}`))
	// Hot-swap to generation 4: the coalescer and plan pool start from
	// zero; and a compaction truncated the WAL.
	l.observe(statsSnapshot(`{"requests":170,"cache":{"hits":15,"misses":155},
		"models":[{"name":"ct","generation":4,"batcher":{"requests":12,"batches":12,"timeouts":12},"plans":{"compiles":7,"drops":3}}],
		"ingest":{"ct":{"applied_seq":11,"batches_applied":11,"retrained":4,"journaled_batches":12,"journal_syncs":12,"journal_bytes":20000,"compactions":1}},
		"kernels":[{"nanos":2000},{"nanos":1000}]}`))
	want := map[counter]uint64{
		cRequests: 70, cCacheHits: 5, cCacheMisses: 65, cKernelNanos: 1500,
		cBatcherRequests: 50 + 12, cBatcherBatches: 40 + 12, cBatcherTimeouts: 30 + 12,
		cPlanCompiles: 0 + 7, cPlanDrops: 0 + 3,
		cApplied: 6, cRetrained: 2, cJournaled: 7, cJournalSyncs: 7,
		cJournalBytes: 40000 + 20000, cCompactions: 1,
	}
	for c := counter(0); c < numCounters; c++ {
		if l.sum[c] != want[c] {
			t.Errorf("counter %d: accumulated %d, want %d", c, l.sum[c], want[c])
		}
	}
	if l.applied != 11 {
		t.Errorf("applied_seq %d, want 11", l.applied)
	}
	if got := l.ratio(cBatcherRequests, cBatcherBatches); math.Abs(got-62.0/52.0) > 1e-12 {
		t.Errorf("reqs per batch %v, want 62/52", got)
	}
	if got := l.ratio(cCacheHits, cErrors); got != 0 {
		t.Errorf("ratio over a zero denominator = %v, want 0", got)
	}
}

func TestOracleCatchesBadAnswers(t *testing.T) {
	fx := testFixtures()
	point := pointRequest(fx, streamRNG(1, "p"), "ct")
	scan := scanRequest(fx, streamRNG(1, "s"), "part")
	good := make([]float64, len(scan.ts))
	for i := range good {
		good[i] = float64(i%fxThresholds) * 3 // ascending within each vector
	}
	body := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	nonMonotone := append([]float64(nil), good...)
	nonMonotone[10], nonMonotone[11] = nonMonotone[11], nonMonotone[10]

	for _, c := range []struct {
		name   string
		req    *request
		status int
		body   []byte
		want   string // substring of the failure; "" means the answer is fine
	}{
		{"good point", &point, 200, body(map[string]any{"estimate": 12.5}), ""},
		{"good batch", &scan, 200, body(map[string]any{"estimates": good}), ""},
		{"NaN cannot even be JSON", &point, 200, []byte(`{"estimate":NaN}`), "undecodable"},
		{"out of range high", &point, 200, body(map[string]any{"estimate": 301.0}), "outside"},
		{"out of range negative", &point, 200, body(map[string]any{"estimate": -0.5}), "outside"},
		{"non-monotone batch", &scan, 200, body(map[string]any{"estimates": nonMonotone}), "not monotone"},
		{"short batch", &scan, 200, body(map[string]any{"estimates": good[:5]}), "want 256"},
		{"refused", &point, 429, []byte(`{"error":{"code":"backpressure"}}`), "status 429"},
		{"server error", &point, 503, nil, "status 503"},
	} {
		o := newOracle(nil, float64(fx.db.Size()))
		o.check(c.req, c.status, c.body)
		switch {
		case o.attempted != 1:
			t.Errorf("%s: counted %d attempts", c.name, o.attempted)
		case c.want == "" && o.failed != 0:
			t.Errorf("%s: flagged a good answer: %v", c.name, o.firstErr)
		case c.want != "" && (o.failed != 1 || !strings.Contains(o.firstErr.Error(), c.want)):
			t.Errorf("%s: failed=%d err=%v, want a failure mentioning %q", c.name, o.failed, o.firstErr, c.want)
		}
	}

	// A NaN or an infinity that did get through decoding is caught too.
	o := newOracle(nil, 300)
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		if err := o.checkEstimates(&point, []float64{v}); err == nil || !strings.Contains(err.Error(), "not finite") {
			t.Errorf("checkEstimates(%v) = %v, want a not-finite failure", v, err)
		}
	}

	// point_hot: the ladder of one key is checked across requests.
	o = newOracle(nil, 300)
	low := request{ts: []float64{0.1}, xs: point.xs, perVector: 1, key: 3, slot: 1}
	high := request{ts: []float64{0.4}, xs: point.xs, perVector: 1, key: 3, slot: 5}
	other := request{ts: []float64{0.4}, xs: point.xs, perVector: 1, key: 4, slot: 0}
	o.check(&high, 200, body(map[string]any{"estimate": 20.0}))
	o.check(&other, 200, body(map[string]any{"estimate": 90.0})) // another key: unrelated
	o.check(&low, 200, body(map[string]any{"estimate": 19.0}))
	if o.failed != 0 {
		t.Fatalf("consistent ladder flagged: %v", o.firstErr)
	}
	o.check(&low, 200, body(map[string]any{"estimate": 25.0})) // f(0.1) > f(0.4)
	if o.failed != 1 || !strings.Contains(o.firstErr.Error(), "not monotone") {
		t.Errorf("inconsistent ladder: failed=%d err=%v", o.failed, o.firstErr)
	}
}

func TestVerdicts(t *testing.T) {
	lat := gate{"latency_p50_us", 0.10, false}
	rate := gate{"estimates_per_s", 0.10, true}
	for _, c := range []struct {
		g         gate
		a, b, spr float64
		want      string
	}{
		{lat, 100, 105, 0.02, "unchanged"},
		{lat, 100, 115, 0.02, "REGRESSED"},
		{lat, 100, 80, 0.02, "improved"},
		{lat, 100, 108, 0.30, "unresolved"},
		{lat, 100, 200, 0.30, "REGRESSED"}, // worse than even the wide spread explains
		{rate, 1000, 850, 0.02, "REGRESSED"},
		{rate, 1000, 1200, 0.02, "improved"},
		{rate, 1000, 950, 0.02, "unchanged"},
	} {
		if _, got := verdict(c.g, c.a, c.b, c.spr); got != c.want {
			t.Errorf("%s: %v -> %v (spread %v): %s, want %s", c.g.name, c.a, c.b, c.spr, got, c.want)
		}
	}
}

func TestCompareRuns(t *testing.T) {
	dir := t.TempDir()
	write := func(sub string, seed int64, p50 float64, failed int) {
		rec := record{Workload: "point_serial", Seed: seed, Attempted: 1000, Failed: failed,
			Metrics: map[string]value{"latency_p50_us": {p50, "us"}, "estimates_per_s": {1e6 / p50, "1/s"}},
			Detail:  map[string]value{"cpu_us_per_estimate": {p50 / 10, "us"}}}
		if sub == "stolen" {
			rec.Detail["driver.steal_share"] = value{0.3, "ratio"}
		}
		b, _ := json.Marshal(rec)
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, sub, fmt.Sprintf("run-point_serial-s%d-t0.json", seed)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		write("base", seed, 2500+float64(seed), 0)
		write("same", seed, 2530+float64(seed), 0)
		write("slow", seed, 3400+float64(seed), 0)
		write("broken", seed, 2500+float64(seed), 1)
		write("stolen", seed, 3400+float64(seed), 0)
	}
	manifestPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(manifestPath, manifest(10), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		b         string
		regressed bool
		rows      string // what the verdict of every gated row must be
	}{{"same", false, "unchanged"}, {"slow", true, "REGRESSED"}, {"broken", true, "unchanged"}, {"stolen", false, "unresolved"}} {
		var out bytes.Buffer
		got, err := compareRuns(manifestPath, filepath.Join(dir, "base"), filepath.Join(dir, c.b), &out)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.regressed {
			t.Errorf("base vs %s: regressed=%v, want %v\n%s", c.b, got, c.regressed, out.String())
		}
		// Two manifest gates and cpu_us_per_estimate, which is per-layer in
		// the manifest and carries its bound in metrics.go.
		for _, metric := range []string{"latency_p50_us", "estimates_per_s", "cpu_us_per_estimate"} {
			if !regexp.MustCompile(metric + ` .*` + c.rows + ` \(n=5,5\)`).MatchString(out.String()) {
				t.Errorf("base vs %s: no %s row reading %s\n%s", c.b, metric, c.rows, out.String())
			}
		}
	}
}

// The committed BENCHMARK.json must be what -manifest prints, and must
// stay inside the acceptance contract's limits.
func TestManifest(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(committed, &doc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifest(doc.RunSeconds)) {
		t.Error("BENCHMARK.json is stale: regenerate it with `selbench -manifest <run_seconds>`")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range allMetrics() {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
			t.Errorf("metric %q (unit %q) breaks the naming contract or repeats", d.name, d.unit)
		}
		seen[d.name] = true
		if d.endToEnd && (d.bound <= 0 || d.bound > 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || seen[w.name] || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q breaks the naming contract", w.name)
		}
		seen[w.name] = true
	}
	if n := len(endToEndMetrics); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayerMetrics); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if findMetric("setup_s") == nil || findMetric("setup_s").unit != "s" || findMetric("setup_s").higher {
		t.Error("setup_s must be an end-to-end metric in s, lower is better")
	}
	if runs := 4 + 22*len(workloads); doc.RunSeconds < 1 || doc.RunSeconds > 60 || runs*(doc.RunSeconds+20) > 3420 {
		t.Errorf("run_seconds %d does not fit %d runs into the driver's 3420 s", doc.RunSeconds, runs)
	}
}

func TestRecorderSelfTime(t *testing.T) {
	r := newRecorder()
	r.spans = []span{
		{Name: "serve.handler", Start: 0, End: 1000, Parent: -1, Req: 0},
		{Name: "serve.cache.get", Start: 1000, End: 1100, Parent: 0, Req: 0},
		{Name: "serve.batcher.submit", Start: 1100, End: 1800, Parent: 0, Req: 0},
		{Name: "serve.batcher.execute", Start: 1500, End: 1700, Parent: 2, Req: 0}, // grandchild: not the handler's
		{Name: "serve.handler", Start: 2000, End: 2300, Parent: -1, Req: 1},
	}
	if got := r.selfTimes("serve.handler"); !reflect.DeepEqual(got, []float64{200, 300}) {
		t.Errorf("handler self times %v, want [200 300]", got)
	}
	if got := r.selfTimes("serve.batcher.submit"); !reflect.DeepEqual(got, []float64{500}) {
		t.Errorf("submit self time %v, want [500]", got)
	}
	r.add("serve.batcher.queue", 2, 0, 50)
	if s := r.spans[len(r.spans)-1]; s.Start != 1100 || s.End != 1150 || s.Req != 0 {
		t.Errorf("added child span %+v", s)
	}
}
