package serve

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"selnet/internal/infer"
	"selnet/internal/obs"
)

// TestMetricsExposition drives every metric family the server can emit
// and validates the whole /metrics payload against the Prometheus text
// exposition format: name and label hygiene, HELP/TYPE exactly once per
// family and before its samples, each family one contiguous group,
// counter naming, histogram bucket monotonicity with +Inf == _count, and
// no duplicate samples. Two models are published, so every per-model
// family carries samples from more than one loop iteration. The set
// of families and their types is pinned in a golden file; regenerate
// with UPDATE_GOLDEN=1 go test ./internal/serve/ -run MetricsExposition.
func TestMetricsExposition(t *testing.T) {
	s, ts := newTestServer(t, Config{Cache: CacheConfig{Capacity: 16}})
	for i, name := range []string{"m", "b"} {
		if _, err := s.Registry().Publish(name, tinyNet(int64(11+i), 3), "mem"); err != nil {
			t.Fatal(err)
		}
	}
	s.SetUpdater(&fakeUpdater{stats: map[string]UpdaterStats{
		"m": {QueueDepth: 1, QueueCapacity: 8, Retrained: 1, Durable: true, JournaledBatches: 3},
		"b": {QueueDepth: 2, QueueCapacity: 8, Durable: true},
	}})
	s.SetTracer(obs.NewTracer(obs.TracerConfig{SlowThreshold: time.Nanosecond}))
	// Router families: the routed request below records one decision.
	s.SetRouter(NewRouter(s.Registry(), RouterConfig{Mode: "auto"}))
	drift := obs.NewDriftMonitor(obs.DriftConfig{Threshold: 2})
	drift.Observe("m", []float64{30, 10}, []float64{10, 10})
	drift.Observe("b", []float64{20}, []float64{10})
	s.SetDrift(drift)

	// Shadow accuracy sampler with every family populated: scored
	// samples (bucket + partition via the locator), a queue drop is not
	// forced but its counter family still appears, and a workload
	// baseline with live observations. Close drains the queue so the
	// scrape below sees deterministic counts.
	wl := obs.NewWorkloadMonitor(obs.WorkloadConfig{Threshold: 0.5})
	wl.SetBaseline("m", [][]float64{{0, 0, 0}, {1, 1, 1}}, []float64{0.2, 0.4})
	sh := obs.NewShadow(obs.ShadowConfig{SampleRate: 1, Workload: wl})
	sh.SetOracle("m", fixedOracle{v: 5})
	sh.SetOracle("b", fixedOracle{v: 3})
	sh.SetLocate(func(string, []float64, float64) (int, bool) { return 1, true })
	sh.Offer("m", 7, 0, []float64{0.5, 0.5, 0.5}, 0.3, 1, 9)
	sh.Offer("b", 8, 0, []float64{0.5, 0.5, 0.5}, 0.3, 1, 4)
	sh.Close()
	s.SetShadow(sh)

	// Cluster families: the fake writes one led model with a lagging
	// peer, one followed, a promotion and a demotion, and pull traffic
	// with one failure.
	s.SetCluster(localCluster())

	infer.SetKernelTiming(true)
	defer infer.SetKernelTiming(false)

	// Traffic: a repeated query exercises the cache-hit path, distinct
	// queries the batcher/plan path; both record trace spans.
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/estimate", map[string]any{"model": "m", "query": []float64{float64(i % 2), 0, 0}, "t": 0.5})
		postJSON(t, ts.URL+"/v1/estimate", map[string]any{"model": "b", "query": []float64{float64(i % 2), 0, 0}, "t": 0.5})
	}
	// One request through the workload router's virtual name.
	postJSON(t, ts.URL+"/v1/estimate", map[string]any{"model": "auto", "query": []float64{0.3, 0, 0}, "t": 0.5})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	fams := validatePromText(t, string(raw))

	// Families new to the observability layer must be present.
	for _, want := range []string{
		"selestd_kernel_seconds_total", "selestd_kernel_calls_total",
		"selestd_request_duration_seconds", "selestd_stage_duration_seconds",
		"selestd_trace_spans_total", "selestd_drift_qerror",
		"selestd_ingest_journaled_batches_total",
		"selestd_shadow_qerror", "selestd_shadow_partition_qerror",
		"selestd_shadow_samples_total", "selestd_shadow_sampled_total",
		"selestd_shadow_dropped_total", "selestd_shadow_oracle_truths_total",
		"selestd_workload_divergence", "selestd_workload_shift_exceeded_total",
		"selestd_ingest_retrain_advised",
		"selestd_cluster_is_leader", "selestd_cluster_term",
		"selestd_cluster_failovers_total", "selestd_cluster_demotions_total",
		"selestd_replication_lag", "selestd_replication_pulls_total",
		"selestd_replication_pull_errors_total", "selestd_replication_entries_total",
		"selestd_replication_diverged",
		"selestd_router_enabled", "selestd_router_decisions_total",
	} {
		if _, ok := fams[want]; !ok {
			t.Errorf("family %q missing from /metrics", want)
		}
	}

	got := familyList(fams)
	golden := filepath.Join("testdata", "metrics_families.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("metric families diverged from %s (regenerate with UPDATE_GOLDEN=1):\ngot:\n%swant:\n%s", golden, got, want)
	}
}

func familyList(fams map[string]string) string {
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %s\n", name, fams[name])
	}
	return b.String()
}

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// validatePromText parses a text-format 0.0.4 payload, failing the test
// on any formatting violation, and returns family name -> type.
func validatePromText(t *testing.T, body string) map[string]string {
	t.Helper()
	types := map[string]string{} // family -> TYPE
	helped := map[string]bool{}  // family -> HELP seen
	sampled := map[string]bool{} // family -> sample seen
	seen := map[string]bool{}    // full sample identity -> present
	lastBucket := map[string]float64{}
	infBucket := map[string]float64{}
	histCount := map[string]float64{}
	histSum := map[string]bool{}
	// Each family is one group: once a line of another family follows
	// it, the family is closed and may not resume.
	current, closed := "", map[string]bool{}
	enter := func(fam, where string) {
		if fam == current {
			return
		}
		if closed[fam] {
			t.Fatalf("family %s resumes after another family: %s", fam, where)
		}
		closed[current] = true
		current = fam
	}

	for ln, line := range strings.Split(body, "\n") {
		where := fmt.Sprintf("line %d: %s", ln+1, line)
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if !promNameRe.MatchString(parts[0]) {
				t.Fatalf("bad HELP name: %s", where)
			}
			enter(parts[0], where)
			if helped[parts[0]] {
				t.Fatalf("repeated HELP for %s: %s", parts[0], where)
			}
			helped[parts[0]] = true
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 || !promNameRe.MatchString(parts[0]) {
				t.Fatalf("bad TYPE line: %s", where)
			}
			enter(parts[0], where)
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("unknown type %q: %s", parts[1], where)
			}
			if _, dup := types[parts[0]]; dup {
				t.Fatalf("repeated TYPE for %s: %s", parts[0], where)
			}
			if sampled[parts[0]] {
				t.Fatalf("TYPE after samples for %s: %s", parts[0], where)
			}
			types[parts[0]] = parts[1]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unknown comment: %s", where)
		default:
			name, labels, value := parsePromSample(t, where, line)
			fam, suffix := name, ""
			for _, sfx := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, sfx); base != name && types[base] == "histogram" {
					fam, suffix = base, sfx
					break
				}
			}
			typ, ok := types[fam]
			if !ok {
				t.Fatalf("sample without TYPE: %s", where)
			}
			enter(fam, where)
			if !helped[fam] {
				t.Fatalf("sample without HELP: %s", where)
			}
			sampled[fam] = true
			if typ == "counter" {
				if !strings.HasSuffix(fam, "_total") {
					t.Fatalf("counter %s does not end in _total: %s", fam, where)
				}
				if value < 0 {
					t.Fatalf("negative counter: %s", where)
				}
			}
			if typ == "histogram" && suffix == "" {
				t.Fatalf("bare sample of histogram family %s: %s", fam, where)
			}

			sig := sampleSig(name, labels, "")
			if seen[sig] {
				t.Fatalf("duplicate sample %s: %s", sig, where)
			}
			seen[sig] = true

			if suffix == "_bucket" {
				le, ok := labels["le"]
				if !ok {
					t.Fatalf("bucket without le label: %s", where)
				}
				if le != "+Inf" {
					if _, err := strconv.ParseFloat(le, 64); err != nil {
						t.Fatalf("bad le %q: %s", le, where)
					}
				}
				series := sampleSig(fam, labels, "le")
				if value < lastBucket[series] {
					t.Fatalf("bucket counts decreased for %s: %s", series, where)
				}
				lastBucket[series] = value
				if le == "+Inf" {
					infBucket[series] = value
				}
			}
			if suffix == "_count" {
				histCount[sampleSig(fam, labels, "")] = value
			}
			if suffix == "_sum" {
				histSum[sampleSig(fam, labels, "")] = true
			}
		}
	}

	for series, count := range histCount {
		if inf, ok := infBucket[series]; !ok {
			t.Fatalf("histogram series %s has no +Inf bucket", series)
		} else if inf != count {
			t.Fatalf("histogram series %s: +Inf bucket %v != count %v", series, inf, count)
		}
		if !histSum[series] {
			t.Fatalf("histogram series %s has no _sum", series)
		}
	}
	return types
}

// parsePromSample splits `name{labels} value` (labels optional),
// validating names and escapes.
func parsePromSample(t *testing.T, where, line string) (string, map[string]string, float64) {
	t.Helper()
	labels := map[string]string{}
	rest := line
	name := rest
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		rest = rest[i+1:]
		for {
			eq := strings.IndexByte(rest, '=')
			if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
				t.Fatalf("malformed labels: %s", where)
			}
			key := rest[:eq]
			if !promLabelRe.MatchString(key) {
				t.Fatalf("bad label name %q: %s", key, where)
			}
			if _, dup := labels[key]; dup {
				t.Fatalf("duplicate label %q: %s", key, where)
			}
			// Scan the quoted value, honoring \\ \" \n escapes.
			var val strings.Builder
			j := eq + 2
			for {
				if j >= len(rest) {
					t.Fatalf("unterminated label value: %s", where)
				}
				c := rest[j]
				if c == '"' {
					break
				}
				if c == '\\' {
					j++
					if j >= len(rest) || !strings.ContainsRune(`\"n`, rune(rest[j])) {
						t.Fatalf("bad escape: %s", where)
					}
				}
				val.WriteByte(rest[j])
				j++
			}
			labels[key] = val.String()
			rest = rest[j+1:]
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
				continue
			}
			if !strings.HasPrefix(rest, "} ") {
				t.Fatalf("malformed label close: %s", where)
			}
			rest = rest[2:]
			break
		}
	} else {
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			t.Fatalf("sample without value: %s", where)
		}
		name, rest = rest[:sp], rest[sp+1:]
	}
	if !promNameRe.MatchString(name) {
		t.Fatalf("bad metric name %q: %s", name, where)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional trailing timestamp
		t.Fatalf("bad sample tail %q: %s", rest, where)
	}
	value, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		t.Fatalf("bad value %q: %s", fields[0], where)
	}
	return name, labels, value
}

// sampleSig is a canonical identity for a sample: name plus sorted
// labels, optionally excluding one label (le, for bucket series).
func sampleSig(name string, labels map[string]string, drop string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != drop {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%s", k, labels[k])
	}
	return b.String()
}
