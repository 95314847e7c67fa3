package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func span(id uint64, total time.Duration) Span {
	sp := Span{TraceID: id, Route: "/v1/estimate", Model: "m", Start: time.Now(), Total: total, Status: 200}
	for i := Stage(0); i < NumStages; i++ {
		sp.Stages[i] = time.Duration(i+1) * time.Microsecond
	}
	return sp
}

func TestTracerRecordAndRecent(t *testing.T) {
	tr := NewTracer(TracerConfig{SlowThreshold: time.Hour})
	const n = traceCapacity + 12
	for i := uint64(1); i <= n; i++ {
		tr.Record(span(i, time.Duration(i)*time.Millisecond))
	}
	st := tr.Stats()
	if st.Recorded != n || st.Dropped != 0 {
		t.Fatalf("stats %+v", st)
	}
	recent := tr.Recent(0)
	if len(recent) != traceCapacity {
		t.Fatalf("recent returned %d spans, want %d (ring capacity)", len(recent), traceCapacity)
	}
	// Newest first: the ring holds the last traceCapacity spans.
	if recent[0].TraceID != n || recent[len(recent)-1].TraceID != n-traceCapacity+1 {
		t.Fatalf("recent order: first %d last %d", recent[0].TraceID, recent[len(recent)-1].TraceID)
	}
	if got := tr.Recent(3); len(got) != 3 || got[0].TraceID != n {
		t.Fatalf("limited recent: %+v", got)
	}
}

func TestTracerSlowList(t *testing.T) {
	tr := NewTracer(TracerConfig{SlowThreshold: 10 * time.Millisecond})
	tr.Record(span(1, time.Millisecond)) // below threshold
	// slowCapacity+1 spans past the threshold, 20ms, 21ms, ...: the last
	// one evicts the 20ms span.
	for i := uint64(0); i <= slowCapacity; i++ {
		tr.Record(span(2+i, time.Duration(20+i)*time.Millisecond))
	}
	tr.Record(span(100, 10*time.Millisecond)) // at threshold but slower spans win
	slow := tr.Slow()
	if len(slow) != slowCapacity {
		t.Fatalf("slow retained %d, want %d", len(slow), slowCapacity)
	}
	if slow[0].TraceID != 2+slowCapacity || slow[len(slow)-1].TraceID != 3 {
		t.Fatalf("slow order: first %d, last %d", slow[0].TraceID, slow[len(slow)-1].TraceID)
	}
	if st := tr.Stats(); st.SlowRetained != slowCapacity || st.SlowThresholdSeconds != 0.01 {
		t.Fatalf("stats %+v", st)
	}
}

func TestTracerStageHistograms(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	sp := Span{TraceID: 1, Total: time.Millisecond}
	sp.Stages[StageExecute] = 20 * time.Microsecond
	// Other stages zero: they must not be observed.
	tr.Record(sp)
	if s := tr.StageSnapshot(StageExecute); s.Count != 1 {
		t.Fatalf("execute histogram count %d, want 1", s.Count)
	}
	if s := tr.StageSnapshot(StageCache); s.Count != 0 {
		t.Fatalf("cache histogram count %d, want 0 (zero stages skipped)", s.Count)
	}
}

// TestTracerConcurrent exercises the seqlock ring from concurrent
// writers and readers; run under -race in CI.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(TracerConfig{SlowThreshold: time.Hour})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(1); i <= 500; i++ {
				tr.Record(span(base*1000+i, time.Millisecond))
			}
		}(uint64(g + 1))
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					for _, sp := range tr.Recent(16) {
						if sp.TraceID == 0 {
							t.Error("torn read: zero trace id")
							return
						}
					}
				}
			}
		}()
	}
	// Writers finish first, then readers are stopped.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	<-done
	st := tr.Stats()
	if st.Recorded+st.Dropped != 2000 {
		t.Fatalf("recorded %d + dropped %d != 2000", st.Recorded, st.Dropped)
	}
}

func TestSpanJSONCarriesAllStages(t *testing.T) {
	raw, err := json.Marshal(span(7, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m["trace_id"] != FormatTraceID(7) {
		t.Fatalf("trace_id %v", m["trace_id"])
	}
	stages, ok := m["stages_ns"].(map[string]any)
	if !ok {
		t.Fatalf("stages_ns missing: %s", raw)
	}
	for _, name := range []string{"decode", "cache", "execute", "encode"} {
		if _, ok := stages[name]; !ok {
			t.Fatalf("stage %q missing in %s", name, raw)
		}
	}
}

func TestTracerWriteMetrics(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	tr.Record(span(1, time.Millisecond))
	var b strings.Builder
	pw := NewPromWriter(&b)
	tr.WriteMetrics(pw)
	pw.Flush()
	out := b.String()
	for _, want := range []string{
		"selestd_trace_spans_total 1",
		`selestd_stage_duration_seconds_bucket{stage="execute"`,
		`selestd_stage_duration_seconds_count{stage="encode"} 1`,
		"selestd_request_duration_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, out)
		}
	}
}

func TestTraceIDContext(t *testing.T) {
	id := NextTraceID()
	if id == 0 {
		t.Fatal("zero trace id")
	}
	ctx := WithTraceID(t.Context(), id)
	got, ok := TraceIDFrom(ctx)
	if !ok || got != id {
		t.Fatalf("got %d ok=%v, want %d", got, ok, id)
	}
	if _, ok := TraceIDFrom(t.Context()); ok {
		t.Fatal("unexpected trace id on fresh context")
	}
}

func TestParseTraceID(t *testing.T) {
	id := NextTraceID()
	got, ok := ParseTraceID(FormatTraceID(id))
	if !ok || got != id {
		t.Fatalf("round-trip: got %d ok=%v, want %d", got, ok, id)
	}
	for _, bad := range []string{"", "zz", "0", "00000000000000000", "0000000000000000", "-1"} {
		if _, ok := ParseTraceID(bad); ok {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
}
