package main

import "testing"

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkNetEstimatePlan-8   35275   33921 ns/op   0 B/op   0 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if r.Name != "BenchmarkNetEstimatePlan" || r.Iterations != 35275 ||
		r.NsPerOp != 33921 || r.BytesPerOp != 0 || r.AllocsPerOp != 0 {
		t.Fatalf("parsed %+v", r)
	}

	r, ok = parseLine("BenchmarkX 10 5.5 ns/op 3 reqs/batch")
	if !ok || r.Metrics["reqs/batch"] != 3 {
		t.Fatalf("custom metric: %+v ok=%v", r, ok)
	}

	for _, bad := range []string{
		"ok  	selnet/internal/selnet	1.2s",
		"PASS",
		"goos: linux",
		"BenchmarkNoValue-8",
	} {
		if _, ok := parseLine(bad); ok {
			t.Fatalf("accepted non-benchmark line %q", bad)
		}
	}
}

func TestExtractKernelTimings(t *testing.T) {
	results := []Result{
		{
			Name: "BenchmarkNetEstimatePlanKernels",
			Metrics: map[string]float64{
				"kernel:matmul:ns/op":     12000,
				"kernel:matmul:calls/op":  6,
				"kernel:softmax:ns/op":    800,
				"kernel:softmax:calls/op": 1,
				"reqs/batch":              4,
			},
		},
		{Name: "BenchmarkOther", Metrics: map[string]float64{"reqs/batch": 2}},
	}
	kts := extractKernelTimings(results)
	if len(kts) != 2 {
		t.Fatalf("got %d kernel timings, want 2: %+v", len(kts), kts)
	}
	// Sorted by benchmark then kernel.
	if kts[0].Kernel != "matmul" || kts[0].NsPerOp != 12000 || kts[0].CallsPerOp != 6 {
		t.Fatalf("matmul entry %+v", kts[0])
	}
	if kts[1].Kernel != "softmax" || kts[1].Benchmark != "BenchmarkNetEstimatePlanKernels" {
		t.Fatalf("softmax entry %+v", kts[1])
	}
	// The kernel keys are consumed; other custom metrics survive.
	if _, left := results[0].Metrics["kernel:matmul:ns/op"]; left {
		t.Fatal("kernel metric left behind in Metrics")
	}
	if results[0].Metrics["reqs/batch"] != 4 || results[1].Metrics["reqs/batch"] != 2 {
		t.Fatalf("non-kernel metrics touched: %+v", results)
	}
}

func TestExtractKernelTimingsEmpty(t *testing.T) {
	results := []Result{{Name: "BenchmarkPlain", Metrics: map[string]float64{}}}
	if kts := extractKernelTimings(results); kts != nil {
		t.Fatalf("expected nil, got %+v", kts)
	}
	if results[0].Metrics != nil {
		t.Fatal("empty Metrics map should be nilled out")
	}
}

func TestCheckZeroAllocs(t *testing.T) {
	results := []Result{
		{Name: "BenchmarkClean", AllocsPerOp: 0},
		{Name: "BenchmarkDirty", AllocsPerOp: 3},
	}
	if p := checkZeroAllocs(results, "BenchmarkClean"); p != nil {
		t.Fatalf("clean benchmark flagged: %v", p)
	}
	if p := checkZeroAllocs(results, "BenchmarkClean,BenchmarkDirty,BenchmarkGone"); len(p) != 2 {
		t.Fatalf("want 2 problems (dirty + missing), got %v", p)
	}
	if p := checkZeroAllocs(results, ""); p != nil {
		t.Fatalf("empty list produced problems: %v", p)
	}
}
