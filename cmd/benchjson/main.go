// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a stable JSON document. With -fail-zero-allocs, any listed
// benchmark reporting allocs/op > 0 (or missing from the input) fails
// the run: the compiled-plan hot path must stay allocation-free.
//
// CI uses it to write BENCH_infer.json, kept as a build artifact, and to
// fail PRs that make the hot path allocate. ns/op is recorded, not gated.
//
// Usage:
//
//	go test -bench=... -benchmem -run '^$' ./... | benchjson \
//	    -o BENCH_infer.json \
//	    -fail-zero-allocs BenchmarkNetEstimatePlan,BenchmarkNetEstimateBatch64Plan
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped.
	Name string `json:"name"`
	// Iterations is b.N for the reported run.
	Iterations int64 `json:"iterations"`
	// NsPerOp, BytesPerOp and AllocsPerOp mirror the standard -benchmem
	// columns (Bytes/Allocs are -1 when -benchmem was not in effect).
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds any custom b.ReportMetric units (e.g. "reqs/batch").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// KernelTiming is one per-kernel attribution lifted from a benchmark's
// custom metrics. The kernel-timing benchmarks report
// `kernel:<name>:ns/op` and `kernel:<name>:calls/op` via b.ReportMetric;
// benchjson folds each pair into one entry here instead of leaving the
// raw metric keys in Result.Metrics.
type KernelTiming struct {
	Benchmark  string  `json:"benchmark"`
	Kernel     string  `json:"kernel"`
	NsPerOp    float64 `json:"ns_per_op"`
	CallsPerOp float64 `json:"calls_per_op"`
}

type document struct {
	Benchmarks    []Result       `json:"benchmarks"`
	KernelTimings []KernelTiming `json:"kernel_timings,omitempty"`
}

func main() {
	out := flag.String("o", "", "write JSON here instead of stdout")
	failZero := flag.String("fail-zero-allocs", "",
		"comma-separated benchmark names that must report 0 allocs/op")
	flag.Parse()

	doc := document{Benchmarks: []Result{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if r, ok := parseLine(sc.Text()); ok {
			doc.Benchmarks = append(doc.Benchmarks, r)
		}
	}
	if err := sc.Err(); err != nil {
		fatal("read stdin: %v", err)
	}
	if len(doc.Benchmarks) == 0 {
		fatal("no benchmark lines found on stdin")
	}
	doc.KernelTimings = extractKernelTimings(doc.Benchmarks)

	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal("marshal: %v", err)
	}
	b = append(b, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			fatal("write %s: %v", *out, err)
		}
	} else {
		os.Stdout.Write(b)
	}

	problems := checkZeroAllocs(doc.Benchmarks, *failZero)
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "benchjson: %s\n", p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
}

// splitList parses a comma-separated flag value.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// checkZeroAllocs enforces -fail-zero-allocs: every listed benchmark must
// be present and report exactly 0 allocs/op.
func checkZeroAllocs(results []Result, list string) []string {
	var problems []string
	for _, name := range splitList(list) {
		found := false
		for _, r := range results {
			if r.Name != name {
				continue
			}
			found = true
			if r.AllocsPerOp != 0 {
				problems = append(problems, fmt.Sprintf("%s reports %v allocs/op, want 0", name, r.AllocsPerOp))
			}
		}
		if !found {
			problems = append(problems, fmt.Sprintf("required benchmark %s missing from input", name))
		}
	}
	return problems
}

// extractKernelTimings moves kernel:<name>:{ns,calls}/op metrics out of
// each result's Metrics map into a flat, sorted kernel-timing table.
func extractKernelTimings(results []Result) []KernelTiming {
	var out []KernelTiming
	for i := range results {
		r := &results[i]
		perKernel := make(map[string]*KernelTiming)
		for unit, v := range r.Metrics {
			rest, ok := strings.CutPrefix(unit, "kernel:")
			if !ok {
				continue
			}
			kernel, metric, ok := strings.Cut(rest, ":")
			if !ok {
				continue
			}
			kt := perKernel[kernel]
			if kt == nil {
				kt = &KernelTiming{Benchmark: r.Name, Kernel: kernel}
				perKernel[kernel] = kt
			}
			switch metric {
			case "ns/op":
				kt.NsPerOp = v
			case "calls/op":
				kt.CallsPerOp = v
			default:
				continue
			}
			delete(r.Metrics, unit)
		}
		if len(r.Metrics) == 0 {
			r.Metrics = nil
		}
		for _, kt := range perKernel {
			out = append(out, *kt)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Benchmark != out[j].Benchmark {
			return out[i].Benchmark < out[j].Benchmark
		}
		return out[i].Kernel < out[j].Kernel
	})
	return out
}

// parseLine parses one `BenchmarkX-8  N  v unit  v unit ...` line.
func parseLine(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	name := f[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	r := Result{Name: name, Iterations: iters, BytesPerOp: -1, AllocsPerOp: -1}
	seen := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
			seen = true
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = v
		}
	}
	return r, seen
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
