package experiments

import (
	"slices"
	"strings"
	"testing"
)

// microConfig is deliberately tiny: these tests check wiring, not
// fidelity.
func microConfig() Config {
	return Config{
		Seed: 1, N: 400, Dim: 8, NumQueries: 16, W: 4,
		Epochs: 3, GBMTrees: 8, SampleBudget: 80,
		MonoQueries: 4, MonoThresholds: 8,
		LValues:   []int{4, 8},
		KValues:   []int{1, 3},
		UpdateOps: 2, UpdateBatchSize: 3,
	}
}

// tableConfig is smaller still, for the tables that train every SelNet
// variant on all four settings (Table 6), the whole model zoo on all
// four (Table 7), or the whole zoo once (Table 11). W >= 20 keeps
// RunAblationTable from densifying the workload to 50 query vectors.
func tableConfig() Config {
	cfg := microConfig()
	cfg.N, cfg.NumQueries, cfg.W, cfg.Epochs = 120, 8, 20, 1
	return cfg
}

func TestScaleConfigs(t *testing.T) {
	q, f := QuickConfig(), FullConfig()
	// FullConfig is the fidelity run: larger than QuickConfig in every
	// dimension that sets the cost of a table.
	if q.N >= f.N || q.Dim >= f.Dim || q.NumQueries >= f.NumQueries || q.Epochs >= f.Epochs || q.GBMTrees >= f.GBMTrees {
		t.Fatalf("QuickConfig %+v is not smaller than FullConfig %+v", q, f)
	}
	for _, cfg := range []Config{q, f} {
		if len(cfg.LValues) == 0 || len(cfg.KValues) == 0 || cfg.UpdateOps == 0 || cfg.MonoQueries == 0 {
			t.Fatalf("config %+v leaves a table empty", cfg)
		}
	}
}

func TestNewEnvSplitsAndTMax(t *testing.T) {
	cfg := microConfig()
	for _, s := range Settings {
		env := NewEnv(cfg, s)
		if env.Setting != s {
			t.Fatalf("setting %q", env.Setting)
		}
		if len(env.Train) == 0 || len(env.Valid) == 0 || len(env.Test) == 0 {
			t.Fatalf("%s: empty split %d/%d/%d", s, len(env.Train), len(env.Valid), len(env.Test))
		}
		if env.TMax <= 0 {
			t.Fatalf("%s: TMax %v", s, env.TMax)
		}
	}
}

func TestNewEnvUnknownSettingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	NewEnv(microConfig(), "nope")
}

func TestNewBetaEnv(t *testing.T) {
	env := NewBetaEnv(microConfig())
	if !strings.Contains(env.Setting, "beta") {
		t.Fatalf("setting %q", env.Setting)
	}
	if len(env.Train) == 0 {
		t.Fatalf("empty beta workload")
	}
}

func TestBuildModelAllNames(t *testing.T) {
	cfg := microConfig()
	env := NewEnv(cfg, "fasttext-cos")
	for _, name := range AllModelNames {
		est := BuildModel(cfg, env, name)
		if est == nil {
			t.Fatalf("%s: nil on cosine setting", name)
		}
		v := est.Estimate(env.Test[0].X, env.Test[0].T)
		if v < 0 {
			t.Fatalf("%s: negative estimate %v", name, v)
		}
	}
}

func TestBuildModelLSHNilOnEuclidean(t *testing.T) {
	cfg := microConfig()
	env := NewEnv(cfg, "fasttext-l2")
	if BuildModel(cfg, env, "LSH") != nil {
		t.Fatalf("LSH must be inapplicable on fasttext-l2 (as in Table 2)")
	}
}

func TestRunAccuracyTableSmoke(t *testing.T) {
	cfg := microConfig()
	table := RunAccuracyTable(cfg, "fasttext-l2")
	// Table 2 drops LSH, keeping 9 rows.
	if len(table.Rows) != len(AllModelNames)-1 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	out := table.String()
	for _, want := range []string{"Table 2", "SelNet *", "KDE *", "LightGBM-m *", "MAPE"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	// Consistency stars must match the paper's assignment.
	for _, r := range table.Rows {
		wantStar := map[string]bool{
			"KDE": true, "LightGBM-m": true, "DLN": true, "UMNN": true, "SelNet": true,
		}[r.Model]
		if r.Consistent != wantStar {
			t.Fatalf("%s: consistent=%v, want %v", r.Model, r.Consistent, wantStar)
		}
	}
}

func TestRunMonotonicityTableSmoke(t *testing.T) {
	cfg := microConfig()
	table := RunMonotonicityTable(cfg)
	if len(table.Scores) != len(AllModelNames) {
		t.Fatalf("scores = %d", len(table.Scores))
	}
	for _, s := range table.Scores {
		if s.Score < 0 || s.Score > 100 {
			t.Fatalf("%s: score %v out of range", s.Model, s.Score)
		}
		// Consistent models must score a perfect 100 (Table 5).
		switch s.Model {
		case "LSH", "KDE", "LightGBM-m", "SelNet":
			if s.Score < 100 {
				t.Fatalf("%s: consistent model scored %v", s.Model, s.Score)
			}
		}
	}
	if out := table.String(); !strings.Contains(out, "Table 5") || !strings.Contains(out, "SelNet") {
		t.Fatalf("rendered table:\n%s", out)
	}
}

func TestRunAblationTableSmoke(t *testing.T) {
	table := RunAblationTable(tableConfig())
	if len(table.Rows) != 3*len(Settings) {
		t.Fatalf("rows = %d, want 3 variants x %d settings", len(table.Rows), len(Settings))
	}
	for _, r := range table.Rows {
		if r.Test.MAE < 0 || r.Valid.MAE < 0 {
			t.Fatalf("%s/%s: negative MAE %+v", r.Setting, r.Model, r)
		}
	}
	out := table.String()
	for _, want := range []string{"Table 6", "SelNet-ct", "SelNet-ad-ct", "youtube-cos"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestRunTimingTableSmoke(t *testing.T) {
	table := RunTimingTable(tableConfig())
	if len(table.Rows) != len(AllModelNames)+2 {
		t.Fatalf("rows = %d, want the zoo plus SelNet-ct and SelNet-ad-ct", len(table.Rows))
	}
	l2 := slices.Index(table.Settings, "fasttext-l2")
	for _, r := range table.Rows {
		for si, ms := range r.MS {
			// LSH is inapplicable on fasttext-l2 (Table 2); every other
			// cell is a measured time.
			if inapplicable := r.Model == "LSH" && si == l2; inapplicable != (ms == -1) || (!inapplicable && ms < 0) {
				t.Fatalf("%s on %s: %v ms", r.Model, table.Settings[si], ms)
			}
		}
	}
	out := table.String()
	for _, want := range []string{"Table 7", "SelNet-ad-ct", "fasttext-l2", " -"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestRunBetaWorkloadTableSmoke(t *testing.T) {
	table := RunBetaWorkloadTable(tableConfig())
	// A cosine setting: every model applies, LSH included.
	if len(table.Rows) != len(AllModelNames) {
		t.Fatalf("rows = %d, want %d", len(table.Rows), len(AllModelNames))
	}
	if !strings.Contains(table.Setting, "beta") {
		t.Fatalf("setting %q", table.Setting)
	}
	if out := table.String(); !strings.Contains(out, "Table 11") || !strings.Contains(out, "Beta(3, 2.5)") {
		t.Fatalf("rendered table:\n%s", out)
	}
}

func TestRunSweepTablesSmoke(t *testing.T) {
	cfg := microConfig()
	t8 := RunControlPointSweep(cfg)
	if len(t8.Rows) != len(cfg.LValues) {
		t.Fatalf("table 8 rows = %d", len(t8.Rows))
	}
	t9 := RunPartitionSizeSweep(cfg)
	if len(t9.Rows) != len(cfg.KValues) {
		t.Fatalf("table 9 rows = %d", len(t9.Rows))
	}
	for _, r := range t9.Rows {
		if r.EstMS <= 0 {
			t.Fatalf("estimation time must be positive")
		}
	}
	t10 := RunPartitionMethodTable(cfg)
	if len(t10.Rows) != 3 {
		t.Fatalf("table 10 rows = %d", len(t10.Rows))
	}
	if !strings.Contains(t10.String(), "CT (3)") {
		t.Fatalf("table 10 missing CT row:\n%s", t10)
	}
}

func TestRunFigure3Smoke(t *testing.T) {
	cfg := microConfig()
	r := RunFigure3(cfg)
	if len(r.Ts) != len(r.GroundTruth) || len(r.Ts) != len(r.PWLFit) || len(r.Ts) != len(r.DLNFit) {
		t.Fatalf("misaligned series")
	}
	if len(r.PWLTau) != 8 || len(r.DLNKeys) != 8 {
		t.Fatalf("expected 8 control points each")
	}
	// The paper's core claim: the PWL model with learned placement fits
	// better than the fixed-keypoint calibrator.
	if r.PWLRMSE >= r.DLNRMSE {
		t.Fatalf("our model RMSE %v should beat DLN %v (Figure 3)", r.PWLRMSE, r.DLNRMSE)
	}
	if !strings.Contains(r.String(), "Figure 3") {
		t.Fatalf("render missing title")
	}
}

func TestRunFigure4Smoke(t *testing.T) {
	cfg := microConfig()
	r := RunFigure4(cfg)
	if len(r.Queries) != 2 {
		t.Fatalf("queries = %d", len(r.Queries))
	}
	q := r.Queries[0]
	if len(q.CtTau) == 0 || len(q.AdTau) == 0 || len(q.Grid) == 0 {
		t.Fatalf("empty series")
	}
	// ad-ct taus must be identical across the two queries.
	for i := range q.AdTau {
		if q.AdTau[i] != r.Queries[1].AdTau[i] {
			t.Fatalf("ad-ct tau differs across queries")
		}
	}
	if out := r.String(); !strings.Contains(out, "Figure 4") || !strings.Contains(out, "query 2:") {
		t.Fatalf("rendered figure:\n%s", out)
	}
}

func TestRunFigure5Smoke(t *testing.T) {
	cfg := microConfig()
	r := RunFigure5(cfg, "face-cos")
	if len(r.Points) != cfg.UpdateOps {
		t.Fatalf("points = %d", len(r.Points))
	}
	for _, p := range r.Points {
		if p.MSE < 0 || p.MAPE < 0 {
			t.Fatalf("negative error")
		}
	}
	if out := r.String(); !strings.Contains(out, "Figure 5: data update on face-cos") {
		t.Fatalf("rendered figure:\n%s", out)
	}
}

func TestRunAblationRunnersSmoke(t *testing.T) {
	cfg := microConfig()
	if got := RunTauTransformAblation(cfg); len(got.Rows) != 2 {
		t.Fatalf("tau ablation rows = %d", len(got.Rows))
	}
	if got := RunLossAblation(cfg); len(got.Rows) != 3 {
		t.Fatalf("loss ablation rows = %d", len(got.Rows))
	}
	if got := RunTrainingModeAblation(cfg); len(got.Rows) != 3 {
		t.Fatalf("training ablation rows = %d", len(got.Rows))
	}
}
