// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a stable JSON document, and optionally enforces the perf gates CI
// runs on every PR:
//
//   - -fail-zero-allocs: any listed benchmark reporting allocs/op > 0
//     fails the run (the compiled-plan hot path must stay allocation-free).
//   - -baseline + -regress: listed benchmarks (exact name or "name/"
//     sub-benchmark prefix) must not regress ns/op by more than
//     -max-regress-pct versus a previously committed benchjson document.
//
// CI uses it to write BENCH_infer.json — the committed perf baseline
// future PRs diff against — and to fail PRs that break the gates.
//
// Usage:
//
//	go test -bench=... -benchmem -run '^$' ./... | benchjson \
//	    -o BENCH_infer.json \
//	    -fail-zero-allocs BenchmarkNetEstimatePlan,BenchmarkNetEstimateBatch64Plan \
//	    -baseline BENCH_infer.base.json -regress BenchmarkMatMul -max-regress-pct 20
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
	baselinePath := flag.String("baseline", "",
		"prior benchjson document to diff ns/op against")
	regress := flag.String("regress", "",
		"comma-separated benchmark names (exact, or sub-benchmark prefixes) gated against -baseline")
	maxRegressPct := flag.Float64("max-regress-pct", 20,
		"fail when a -regress benchmark's ns/op exceeds the baseline by more than this percentage")
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
	if *baselinePath != "" && *regress != "" {
		base, err := readBaseline(*baselinePath)
		if err != nil {
			fatal("baseline: %v", err)
		}
		problems = append(problems, checkRegressions(doc.Benchmarks, base, *regress, *maxRegressPct)...)
	}
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

// readBaseline loads a previously emitted benchjson document.
func readBaseline(path string) ([]Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("parse %s: %v", path, err)
	}
	return doc.Benchmarks, nil
}

// regressMatch reports whether a benchmark name is covered by a -regress
// entry: an exact match, or a sub-benchmark of it ("BenchmarkMatMul"
// covers "BenchmarkMatMul/64x48x352").
func regressMatch(entry, name string) bool {
	return name == entry || strings.HasPrefix(name, entry+"/")
}

// checkRegressions diffs current ns/op against the baseline for every
// benchmark covered by the -regress list. Benchmarks new in the current
// run (absent from the baseline) pass — the next committed baseline will
// cover them — but a listed entry matching nothing at all in the current
// run fails, so a gated benchmark cannot silently vanish.
func checkRegressions(cur, base []Result, list string, maxPct float64) []string {
	baseNs := make(map[string]float64, len(base))
	for _, r := range base {
		baseNs[r.Name] = r.NsPerOp
	}
	var problems []string
	for _, entry := range splitList(list) {
		matched := false
		for _, r := range cur {
			if !regressMatch(entry, r.Name) {
				continue
			}
			matched = true
			b, ok := baseNs[r.Name]
			if !ok || b <= 0 {
				continue
			}
			if pct := (r.NsPerOp - b) / b * 100; pct > maxPct {
				problems = append(problems, fmt.Sprintf(
					"%s regressed: %.0f ns/op vs baseline %.0f (%+.1f%%, limit %+.0f%%)",
					r.Name, r.NsPerOp, b, pct, maxPct))
			}
		}
		if !matched {
			problems = append(problems, fmt.Sprintf("regression-gated benchmark %s missing from input", entry))
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
