package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// gate is one metric's regression rule.
type gate struct {
	name   string
	bound  float64
	higher bool
}

// loadGates reads the end-to-end bounds from BENCHMARK.json and adds the
// per-layer metrics that metrics.go gives a bound of their own.
func loadGates(manifestPath string) ([]gate, error) {
	b, err := os.ReadFile(manifestPath)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", manifestPath, err)
	}
	var gates []gate
	for _, m := range doc.EndToEnd {
		gates = append(gates, gate{m.Name, m.Bound, m.Better == "higher"})
	}
	for _, d := range perLayerMetrics {
		if d.bound > 0 {
			gates = append(gates, gate{d.name, d.bound, d.higher})
		}
	}
	return gates, nil
}

// loadSet reads one run record, or every untraced run record in a
// directory, grouped by workload.
func loadSet(path string) (map[string][]*record, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "run-*-t0.json")); err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("%s holds no run-*-t0.json records", path)
		}
	}
	set := map[string][]*record{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		set[rec.Workload] = append(set[rec.Workload], &rec)
	}
	return set, nil
}

// series is one metric's value in every record of a set, and the
// run-to-run spread: across the records when there are several, across
// the trials of the single record otherwise (0 for a metric that is not
// taken per trial).
func series(recs []*record, name string) (med, spr float64, ok bool) {
	var vals []float64
	for _, r := range recs {
		if v, have := r.Metrics[name]; have {
			vals = append(vals, v.Value)
		} else if v, have := r.Detail[name]; have {
			vals = append(vals, v.Value)
		}
	}
	if len(vals) == 0 {
		return 0, 0, false
	}
	if len(vals) == 1 {
		return vals[0], spread(perTrial(recs[0].Trials, name)), true
	}
	return median(vals), spread(vals), true
}

// verdict applies one gate to the medians of two sets. worse is the
// share of a's median by which b is worse (negative when better).
func verdict(g gate, a, b, spr float64) (worse float64, word string) {
	if a != 0 {
		worse = (b - a) / a
		if g.higher {
			worse = -worse
		}
	}
	switch {
	case worse > g.bound && worse > spr:
		return worse, "REGRESSED"
	case spr > g.bound:
		return worse, "unresolved" // the runs disagree by more than the bound
	case worse < -g.bound:
		return worse, "improved"
	default:
		return worse, "unchanged"
	}
}

// compareRuns prints one row per (workload, gated metric) and reports
// whether anything regressed: a metric past its bound, or a higher
// share of failed operations.
func compareRuns(manifestPath, pathA, pathB string, out io.Writer) (regressed bool, err error) {
	gates, err := loadGates(manifestPath)
	if err != nil {
		return false, err
	}
	setA, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	setB, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%-13s %-22s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "spread", "verdict")
	for _, w := range workloads {
		a, b := setA[w.name], setB[w.name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		// A run reports the steal its medians still carry: above maxSteal
		// only when it had too few clean trials to leave the others out.
		// Such a set decides nothing.
		disturbed := max(stolen(a), stolen(b)) > maxSteal
		if disturbed {
			fmt.Fprintf(out, "%-13s the host withheld more than %.0f%% of the CPU time (A %.1f%%, B %.1f%%): every row is unresolved, measure again\n",
				w.name, 100*maxSteal, 100*stolen(a), 100*stolen(b))
		}
		for _, g := range gates {
			ma, sa, okA := series(a, g.name)
			mb, sb, okB := series(b, g.name)
			if !okA || !okB || (ma == 0 && mb == 0) {
				continue // not measured on this workload
			}
			spr := max(sa, sb)
			worse, word := verdict(g, ma, mb, spr)
			if disturbed {
				word = "unresolved"
			}
			regressed = regressed || word == "REGRESSED"
			fmt.Fprintf(out, "%-13s %-22s %14.4f %14.4f %+7.1f%% %6.0f%% %6.1f%%  %s (n=%d,%d)\n",
				w.name, g.name, ma, mb, 100*worse, 100*g.bound, 100*spr, word, len(a), len(b))
		}
		fa, fb := failedShare(a), failedShare(b)
		word := "unchanged"
		if fb > fa {
			word, regressed = "REGRESSED", true
		}
		fmt.Fprintf(out, "%-13s %-22s %14.6f %14.6f %8s %7s %7s  %s\n", w.name, "failed_share", fa, fb, "", "", "", word)
	}
	return regressed, nil
}

// stolen is the largest driver.steal_share among a set's runs.
func stolen(recs []*record) float64 {
	worst := 0.0
	for _, r := range recs {
		worst = max(worst, r.Metrics["driver.steal_share"].Value, r.Detail["driver.steal_share"].Value)
	}
	return worst
}

func failedShare(recs []*record) float64 {
	attempted, failed := 0, 0
	for _, r := range recs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
