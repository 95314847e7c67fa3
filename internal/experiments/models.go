package experiments

import (
	"math/rand"

	"selnet/internal/deepreg"
	"selnet/internal/distance"
	"selnet/internal/dln"
	"selnet/internal/estimator"
	"selnet/internal/gbm"
	"selnet/internal/kde"
	"selnet/internal/lshsampling"
	"selnet/internal/partition"
	"selnet/internal/selnet"
	"selnet/internal/umnn"
)

// BuildModel trains the named model on the environment. Model names match
// the paper's tables: LSH, KDE, LightGBM, LightGBM-m, DNN, MoE, RMI, DLN,
// UMNN, SelNet, SelNet-ct, SelNet-ad-ct. It returns nil when the model is
// inapplicable to the setting (LSH on Euclidean distance, as in Table 2).
func BuildModel(cfg Config, env *Env, name string) estimator.Model {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(len(name))*37))
	switch name {
	case "LSH":
		if env.DB.Dist != distance.Cosine {
			return nil // SimHash needs cosine (Table 2 omits LSH)
		}
		lcfg := lshsampling.DefaultConfig()
		lcfg.SampleBudget = cfg.SampleBudget
		est, err := lshsampling.Build(rng, env.DB, lcfg)
		if err != nil {
			return nil
		}
		return est
	case "KDE":
		kcfg := kde.DefaultConfig()
		kcfg.SampleSize = cfg.SampleBudget
		return kde.FitTuned(rng, env.DB, kcfg, env.Train)
	case "LightGBM", "LightGBM-m":
		gcfg := gbm.DefaultConfig()
		gcfg.NumTrees = cfg.GBMTrees
		return gbm.FitSelectivity(gcfg, env.Train, name == "LightGBM-m")
	case "DNN":
		m := deepreg.NewDNN(rng, env.DB.Dim, []int{96, 96, 64}, 16)
		m.Fit(deepTrainConfig(cfg), env.Train, env.Valid)
		return m
	case "MoE":
		m := deepreg.NewMoE(rng, env.DB.Dim, []int{64, 64}, 16, 6, 3)
		m.Fit(deepTrainConfig(cfg), env.Train, env.Valid)
		return m
	case "RMI":
		m := deepreg.NewRMI(rng, env.DB.Dim, []int{64, 64}, 16, []int{1, 2, 4})
		m.Fit(deepTrainConfig(cfg), env.Train, env.Valid)
		return m
	case "DLN":
		dcfg := dln.DefaultConfig()
		dcfg.Epochs = cfg.Epochs
		dcfg.Seed = cfg.Seed
		m := dln.New(rng, env.DB.Dim, dcfg)
		m.Fit(env.Train)
		return m
	case "UMNN":
		ucfg := umnn.DefaultConfig()
		ucfg.Epochs = cfg.Epochs
		ucfg.Hidden = []int{64, 64}
		ucfg.QuadPoints = 8
		ucfg.Seed = cfg.Seed
		m := umnn.New(rng, env.DB.Dim, ucfg)
		m.Fit(env.Train)
		return m
	case "SelNet":
		return BuildSelNet(cfg, env, SelNetOptions{K: 3})
	case "SelNet-ct":
		return BuildSelNetCT(cfg, env, true)
	case "SelNet-ad-ct":
		return BuildSelNetCT(cfg, env, false)
	default:
		panic("experiments: unknown model " + name)
	}
}

// deepTrainConfig derives the deep-baseline training settings.
func deepTrainConfig(cfg Config) deepreg.TrainConfig {
	tc := deepreg.DefaultTrainConfig()
	tc.Epochs = cfg.Epochs
	tc.Seed = cfg.Seed
	return tc
}

// SelNetOptions parameterizes the full SelNet builder for the sweep
// tables.
type SelNetOptions struct {
	K      int
	Method partition.Method
	L      int // interior control points; 0 = default
	Loss   selnet.LossKind
	// TrainingMode selects the Sec. 5.3 training procedure:
	// "" or "pretrain+joint" (default), "global-only", "local-only".
	TrainingMode string
	SoftmaxTau   bool
}

// selnetModelConfig derives the architecture from the experiment scale.
func selnetModelConfig(cfg Config, env *Env, opts SelNetOptions) selnet.Config {
	mc := selnet.DefaultConfig()
	mc.TMax = env.TMax
	if opts.L > 0 {
		mc.L = opts.L
	}
	mc.SoftmaxTau = opts.SoftmaxTau
	return mc
}

func selnetTrainConfig(cfg Config, opts SelNetOptions) selnet.TrainConfig {
	tc := selnet.DefaultTrainConfig()
	tc.Epochs = cfg.Epochs
	tc.Seed = cfg.Seed
	tc.Loss = opts.Loss
	tc.AEPretrainSample = min(cfg.N, 2000)
	return tc
}

// BuildSelNet trains the full partitioned SelNet.
func BuildSelNet(cfg Config, env *Env, opts SelNetOptions) *selnet.Partitioned {
	rng := rand.New(rand.NewSource(cfg.Seed + 101))
	pcfg := selnet.DefaultPartitionedConfig()
	pcfg.Model = selnetModelConfig(cfg, env, opts)
	if opts.K > 0 {
		pcfg.K = opts.K
	}
	pcfg.Method = opts.Method
	pcfg.PretrainEpochs = max(cfg.Epochs/5, 2)
	tc := selnetTrainConfig(cfg, opts)
	switch opts.TrainingMode {
	case "global-only":
		pcfg.PretrainEpochs = 0
		pcfg.Beta = 0
	case "local-only":
		pcfg.PretrainEpochs = cfg.Epochs
		tc.Epochs = 0
	}
	p := selnet.NewPartitioned(rng, env.DB, pcfg)
	p.Fit(tc, env.DB, env.Train, env.Valid)
	return p
}

// BuildSelNetCT trains the unpartitioned ablation: SelNet-ct when
// queryDependent, SelNet-ad-ct otherwise.
func BuildSelNetCT(cfg Config, env *Env, queryDependent bool) *selnet.Net {
	rng := rand.New(rand.NewSource(cfg.Seed + 202))
	mc := selnetModelConfig(cfg, env, SelNetOptions{})
	mc.QueryDependentTau = queryDependent
	n := selnet.NewNet(rng, env.DB.Dim, mc)
	n.Fit(selnetTrainConfig(cfg, SelNetOptions{}), env.DB, env.Train, env.Valid)
	return n
}

// AllModelNames lists the models of Tables 1-4 in paper order.
var AllModelNames = []string{
	"LSH", "KDE", "LightGBM", "LightGBM-m", "DNN", "MoE", "RMI", "DLN", "UMNN", "SelNet",
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
