package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"selnet/internal/estimator"
	"selnet/internal/metrics"
	"selnet/internal/partition"
	"selnet/internal/selnet"
	"selnet/internal/vecdata"
)

// AccuracyRow is one model's errors on the validation and test splits.
type AccuracyRow struct {
	Model      string
	Consistent bool
	Valid      metrics.Errors
	Test       metrics.Errors
	EstimateMS float64 // average per-estimate milliseconds on the test split
}

// AccuracyTable reproduces the layout of Tables 1-4 and 11.
type AccuracyTable struct {
	Title   string
	Setting string
	Rows    []AccuracyRow
}

// RunAccuracyTable trains every applicable model on the setting and
// evaluates it — the generator behind Tables 1-4.
func RunAccuracyTable(cfg Config, setting string) AccuracyTable {
	env := NewEnv(cfg, setting)
	title := map[string]string{
		"fasttext-cos": "Table 1: Accuracy on fasttext-cos",
		"fasttext-l2":  "Table 2: Accuracy on fasttext-l2",
		"face-cos":     "Table 3: Accuracy on face-cos",
		"youtube-cos":  "Table 4: Accuracy on YouTube-cos",
	}[setting]
	return runAccuracy(cfg, env, title)
}

// RunBetaWorkloadTable reproduces Table 11: fasttext-cos with thresholds
// drawn from Beta(3, 2.5).
func RunBetaWorkloadTable(cfg Config) AccuracyTable {
	env := NewBetaEnv(cfg)
	return runAccuracy(cfg, env, "Table 11: Accuracy on fasttext-cos (thresholds ~ Beta(3, 2.5))")
}

func runAccuracy(cfg Config, env *Env, title string) AccuracyTable {
	table := AccuracyTable{Title: title, Setting: env.Setting}
	for _, name := range AllModelNames {
		est := BuildModel(cfg, env, name)
		if est == nil {
			continue // inapplicable (LSH on l2)
		}
		table.Rows = append(table.Rows, AccuracyRow{
			Model:      est.Name(),
			Consistent: estimator.IsConsistent(est),
			Valid:      metrics.Evaluate(est, env.Valid),
			Test:       metrics.Evaluate(est, env.Test),
			EstimateMS: metrics.AvgEstimationTime(est, env.Test),
		})
	}
	return table
}

// String renders the table in the paper's layout.
func (t AccuracyTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-14s %12s %12s %12s %12s %10s %10s\n",
		"Model", "MSE(valid)", "MSE(test)", "MAE(valid)", "MAE(test)", "MAPE(vld)", "MAPE(tst)")
	for _, r := range t.Rows {
		name := r.Model
		if r.Consistent {
			name += " *"
		}
		fmt.Fprintf(&b, "%-14s %12.4g %12.4g %12.4g %12.4g %10.3f %10.3f\n",
			name, r.Valid.MSE, r.Test.MSE, r.Valid.MAE, r.Test.MAE, r.Valid.MAPE, r.Test.MAPE)
	}
	b.WriteString("(* = consistency guaranteed)\n")
	return b.String()
}

// MonotonicityTable reproduces Table 5.
type MonotonicityTable struct {
	Setting string
	Scores  []struct {
		Model string
		Score float64
	}
}

// RunMonotonicityTable trains every model on face-cos and measures the
// empirical monotonicity percentage (Table 5).
func RunMonotonicityTable(cfg Config) MonotonicityTable {
	env := NewEnv(cfg, "face-cos")
	rng := rand.New(rand.NewSource(cfg.Seed + 5))
	table := MonotonicityTable{Setting: env.Setting}
	queryVecs := make([][]float64, 0, len(env.Test))
	for _, q := range env.Test {
		queryVecs = append(queryVecs, q.X)
	}
	for _, name := range AllModelNames {
		est := BuildModel(cfg, env, name)
		if est == nil {
			continue
		}
		score := metrics.EmpiricalMonotonicity(rng, est, queryVecs,
			cfg.MonoQueries, cfg.MonoThresholds, env.TMax)
		table.Scores = append(table.Scores, struct {
			Model string
			Score float64
		}{est.Name(), score})
	}
	return table
}

// String renders Table 5.
func (t MonotonicityTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: Empirical monotonicity (%%) on %s\n", t.Setting)
	for _, s := range t.Scores {
		fmt.Fprintf(&b, "%-14s %8.2f\n", s.Model, s.Score)
	}
	return b.String()
}

// AblationTable reproduces Table 6: the three SelNet variants across all
// four settings.
type AblationTable struct {
	Rows []struct {
		Setting string
		Model   string
		Valid   metrics.Errors
		Test    metrics.Errors
	}
}

// RunAblationTable trains SelNet, SelNet-ct and SelNet-ad-ct on every
// setting (Table 6 / Sec. 7.4). The ablation isolates curve-fitting
// flexibility, which only shows on densely sampled per-query curves, so
// the workload trades query count for thresholds per query (the paper
// itself uses w=40).
func RunAblationTable(cfg Config) AblationTable {
	cfg = denseCurveConfig(cfg)
	var table AblationTable
	for _, setting := range Settings {
		env := NewEnv(cfg, setting)
		for _, name := range []string{"SelNet", "SelNet-ct", "SelNet-ad-ct"} {
			est := BuildModel(cfg, env, name)
			table.Rows = append(table.Rows, struct {
				Setting string
				Model   string
				Valid   metrics.Errors
				Test    metrics.Errors
			}{setting, est.Name(), metrics.Evaluate(est, env.Valid), metrics.Evaluate(est, env.Test)})
		}
	}
	return table
}

// String renders Table 6.
func (t AblationTable) String() string {
	var b strings.Builder
	b.WriteString("Table 6: Ablation study\n")
	fmt.Fprintf(&b, "%-14s %-14s %12s %12s %10s %10s %8s %8s\n",
		"Dataset", "Model", "MSE(valid)", "MSE(test)", "MAE(vld)", "MAE(tst)", "MAPE(v)", "MAPE(t)")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-14s %-14s %12.4g %12.4g %10.4g %10.4g %8.3f %8.3f\n",
			r.Setting, r.Model, r.Valid.MSE, r.Test.MSE, r.Valid.MAE, r.Test.MAE, r.Valid.MAPE, r.Test.MAPE)
	}
	return b.String()
}

// denseCurveConfig reshapes the workload toward the paper's w=40 regime:
// fewer query vectors, many thresholds each, holding the total labelled
// example count roughly constant.
func denseCurveConfig(cfg Config) Config {
	if cfg.W >= 20 {
		return cfg
	}
	total := cfg.NumQueries * cfg.W
	cfg.W = 25
	// Keep enough distinct query vectors for query-dependence to be
	// learnable, even if that grows the total example count somewhat.
	cfg.NumQueries = max(total/cfg.W, 50)
	return cfg
}

// TimingTable reproduces Table 7: average estimation time in milliseconds
// per model per setting.
type TimingTable struct {
	Settings []string
	Rows     []struct {
		Model string
		MS    []float64 // aligned with Settings; NaN-free, -1 = inapplicable
	}
}

// RunTimingTable trains the full model zoo on every setting and measures
// the average per-query estimation time (Table 7). The SelNet ablations
// are included, as in the paper.
func RunTimingTable(cfg Config) TimingTable {
	names := append(append([]string{}, AllModelNames...), "SelNet-ct", "SelNet-ad-ct")
	table := TimingTable{Settings: Settings}
	times := make(map[string][]float64, len(names))
	for _, n := range names {
		times[n] = make([]float64, len(Settings))
		for i := range times[n] {
			times[n][i] = -1
		}
	}
	for si, setting := range Settings {
		env := NewEnv(cfg, setting)
		for _, name := range names {
			est := BuildModel(cfg, env, name)
			if est == nil {
				continue
			}
			times[name][si] = metrics.AvgEstimationTime(est, env.Test)
		}
	}
	for _, name := range names {
		table.Rows = append(table.Rows, struct {
			Model string
			MS    []float64
		}{name, times[name]})
	}
	return table
}

// String renders Table 7.
func (t TimingTable) String() string {
	var b strings.Builder
	b.WriteString("Table 7: Average estimation time (milliseconds)\n")
	fmt.Fprintf(&b, "%-14s", "Model")
	for _, s := range t.Settings {
		fmt.Fprintf(&b, " %14s", s)
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-14s", r.Model)
		for _, ms := range r.MS {
			if ms < 0 {
				fmt.Fprintf(&b, " %14s", "-")
			} else {
				fmt.Fprintf(&b, " %14.4f", ms)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// SweepTable is a generic parameter-sweep result (Tables 8-10).
type SweepTable struct {
	Title  string
	Labels []string
	Rows   []struct {
		Label  string
		Errors metrics.Errors
		EstMS  float64
	}
}

// RunControlPointSweep reproduces Table 8: SelNet errors on fasttext-l2
// versus the number of control points.
func RunControlPointSweep(cfg Config) SweepTable {
	env := NewEnv(cfg, "fasttext-l2")
	table := SweepTable{Title: "Table 8: Errors vs number of control points on fasttext-l2 (validation)"}
	for _, l := range cfg.LValues {
		est := BuildSelNet(cfg, env, SelNetOptions{K: 3, L: l})
		table.Rows = append(table.Rows, sweepRow(fmt.Sprintf("L=%d", l), est, env.Valid))
	}
	return table
}

// RunPartitionSizeSweep reproduces Table 9: SelNet errors and estimation
// time on fasttext-l2 versus partition size K.
func RunPartitionSizeSweep(cfg Config) SweepTable {
	env := NewEnv(cfg, "fasttext-l2")
	table := SweepTable{Title: "Table 9: Errors vs partition size on fasttext-l2 (validation)"}
	for _, k := range cfg.KValues {
		est := BuildSelNet(cfg, env, SelNetOptions{K: k})
		table.Rows = append(table.Rows, sweepRow(fmt.Sprintf("K=%d", k), est, env.Valid))
	}
	return table
}

// RunPartitionMethodTable reproduces Table 10: cover-tree vs random vs
// k-means partitioning with K=3 on fasttext-l2 (test split).
func RunPartitionMethodTable(cfg Config) SweepTable {
	env := NewEnv(cfg, "fasttext-l2")
	table := SweepTable{Title: "Table 10: Errors vs partitioning method on fasttext-l2 (test)"}
	for _, m := range []partition.Method{partition.CoverTree, partition.Random, partition.KMeans} {
		est := BuildSelNet(cfg, env, SelNetOptions{K: 3, Method: m})
		table.Rows = append(table.Rows, sweepRow(fmt.Sprintf("%v (3)", m), est, env.Test))
	}
	return table
}

func sweepRow(label string, est estimator.Model, queries []vecdata.Query) struct {
	Label  string
	Errors metrics.Errors
	EstMS  float64
} {
	return struct {
		Label  string
		Errors metrics.Errors
		EstMS  float64
	}{label, metrics.Evaluate(est, queries), metrics.AvgEstimationTime(est, queries)}
}

// String renders a sweep table.
func (t SweepTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-12s %12s %12s %10s %12s\n", "Config", "MSE", "MAE", "MAPE", "Est.Time(ms)")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-12s %12.4g %12.4g %10.3f %12.4f\n",
			r.Label, r.Errors.MSE, r.Errors.MAE, r.Errors.MAPE, r.EstMS)
	}
	return b.String()
}

// RunTauTransformAblation compares Norml2 against Softmax for generating
// the τ increments (the Sec. 5.2 design argument; DESIGN.md ablation).
func RunTauTransformAblation(cfg Config) SweepTable {
	env := NewEnv(cfg, "fasttext-l2")
	table := SweepTable{Title: "Ablation: Norml2 vs Softmax tau transform on fasttext-l2 (test)"}
	for _, softmax := range []bool{false, true} {
		label := "Norml2"
		if softmax {
			label = "Softmax"
		}
		est := BuildSelNet(cfg, env, SelNetOptions{K: 3, SoftmaxTau: softmax})
		table.Rows = append(table.Rows, sweepRow(label, est, env.Test))
	}
	return table
}

// RunLossAblation compares the Huber-log loss against plain L1/L2 on logs
// (the Sec. 5.1 design argument; DESIGN.md ablation).
func RunLossAblation(cfg Config) SweepTable {
	env := NewEnv(cfg, "fasttext-l2")
	table := SweepTable{Title: "Ablation: estimation loss on fasttext-l2 (test)"}
	for _, row := range []struct {
		label string
		kind  selnet.LossKind
	}{
		{"Huber-log", selnet.LossHuberLog},
		{"L1-log", selnet.LossL1Log},
		{"L2-log", selnet.LossL2Log},
	} {
		est := BuildSelNet(cfg, env, SelNetOptions{K: 3, Loss: row.kind})
		table.Rows = append(table.Rows, sweepRow(row.label, est, env.Test))
	}
	return table
}

// RunTrainingModeAblation compares the Sec. 5.3 training procedures:
// pretrain+joint (the paper's choice), global-only and local-only.
func RunTrainingModeAblation(cfg Config) SweepTable {
	env := NewEnv(cfg, "fasttext-l2")
	table := SweepTable{Title: "Ablation: partitioned training procedure on fasttext-l2 (test)"}
	for _, mode := range []string{"pretrain+joint", "global-only", "local-only"} {
		est := BuildSelNet(cfg, env, SelNetOptions{K: 3, TrainingMode: mode})
		table.Rows = append(table.Rows, sweepRow(mode, est, env.Test))
	}
	return table
}
