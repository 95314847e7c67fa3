// Package modeltest builds small fitted instances of every servable
// estimator kind for tests: the codec round-trip suite, the serve-layer
// interface-conformance suite, and the multi-estimator e2e tests all
// need "one tiny model of each kind" and should agree on what that is.
// Everything is deterministic: fixed seeds, synthetic data.
package modeltest

import (
	"bytes"
	"encoding/gob"
	"math/rand"

	"selnet/internal/distance"
	"selnet/internal/dln"
	"selnet/internal/gbm"
	"selnet/internal/kde"
	"selnet/internal/lshsampling"
	"selnet/internal/modelcodec"
	"selnet/internal/selnet"
	"selnet/internal/umnn"
	"selnet/internal/vecdata"
)

// Workload returns a small deterministic database and labelled queries
// for fitting throwaway models.
func Workload(dist distance.Func, n, dim, queries int) (*vecdata.Database, []vecdata.Query) {
	rng := rand.New(rand.NewSource(7))
	var db *vecdata.Database
	if dist == distance.Cosine {
		db = vecdata.SyntheticFasttext(rng, n, dim, distance.Cosine)
	} else {
		db = vecdata.SyntheticFasttext(rng, n, dim, distance.Euclidean)
	}
	wl := vecdata.GeometricWorkload(rng, db, queries, 4)
	return db, wl.Queries
}

// TinySelNet builds a small untrained SelNet (inference correctness does
// not depend on training quality).
func TinySelNet(seed int64, dim int) *selnet.Net {
	cfg := selnet.Config{
		L: 4, EmbedDim: 4,
		AEHidden: []int{8}, AELatent: 4,
		TauHidden: []int{8}, MHidden: []int{8},
		TMax: 1, Lambda: 0.1, QueryDependentTau: true, NormEps: 1e-6,
	}
	return selnet.NewNet(rand.New(rand.NewSource(seed)), dim, cfg)
}

// FitKDE fits a small KDE on the given database — for tests that need a
// sampling-class estimator at an arbitrary dimensionality.
func FitKDE(db *vecdata.Database, queries []vecdata.Query) *kde.Estimator {
	cfg := kde.DefaultConfig()
	cfg.SampleSize = 50
	return kde.FitTuned(rand.New(rand.NewSource(5)), db, cfg, queries)
}

// Inconsistent returns model files the codec must refuse, keyed by a
// short description: the header an older build wrote for each retired
// deep baseline (magic and kind tag; the tag alone decides), and a
// LightGBM fitted without the monotone constraint.
func Inconsistent() map[string][]byte {
	files := map[string][]byte{}
	for _, kind := range []string{"deepreg.DNN", "deepreg.MoE", "deepreg.RMI"} {
		var b bytes.Buffer
		b.WriteString("SELMODL1")
		if err := gob.NewEncoder(&b).Encode(kind); err != nil {
			panic(err)
		}
		files[kind] = b.Bytes()
	}
	_, queries := Workload(distance.Euclidean, 200, 3, 80)
	cfg := gbm.DefaultConfig()
	cfg.NumTrees = 8
	var b bytes.Buffer
	if err := modelcodec.Save(&b, gbm.FitSelectivity(cfg, queries, false)); err != nil {
		panic(err)
	}
	files["non-monotone gbm"] = b.Bytes()
	return files
}

// Builders returns one constructor of a small fitted estimator per
// codec kind, keyed by the modelcodec.Kind slug. Each call fits fresh
// models; callers that only need one kind invoke just that builder.
func Builders() map[string]func() modelcodec.Estimator {
	return map[string]func() modelcodec.Estimator{
		"selnet": func() modelcodec.Estimator {
			return TinySelNet(11, 3)
		},
		"selnet-part": func() modelcodec.Estimator {
			db, _ := Workload(distance.Euclidean, 240, 3, 0)
			pcfg := selnet.DefaultPartitionedConfig()
			pcfg.K = 2
			pcfg.Model.L = 4
			pcfg.Model.EmbedDim = 4
			pcfg.Model.AEHidden = []int{8}
			pcfg.Model.AELatent = 4
			pcfg.Model.TauHidden = []int{8}
			pcfg.Model.MHidden = []int{8}
			pcfg.Model.TMax = 1
			// Untrained locals serve fine for shape/round-trip tests.
			return selnet.NewPartitioned(rand.New(rand.NewSource(3)), db, pcfg)
		},
		"kde": func() modelcodec.Estimator {
			db, queries := Workload(distance.Euclidean, 200, 3, 40)
			cfg := kde.DefaultConfig()
			cfg.SampleSize = 50
			return kde.FitTuned(rand.New(rand.NewSource(5)), db, cfg, queries)
		},
		"lsh": func() modelcodec.Estimator {
			db, _ := Workload(distance.Cosine, 200, 3, 0)
			cfg := lshsampling.DefaultConfig()
			cfg.SampleBudget = 100
			est, err := lshsampling.Build(rand.New(rand.NewSource(5)), db, cfg)
			if err != nil {
				panic(err)
			}
			return est
		},
		"gbm": func() modelcodec.Estimator {
			_, queries := Workload(distance.Euclidean, 200, 3, 80)
			cfg := gbm.DefaultConfig()
			cfg.NumTrees = 8
			return gbm.FitSelectivity(cfg, queries, true)
		},
		"dln": func() modelcodec.Estimator {
			_, queries := Workload(distance.Euclidean, 200, 3, 60)
			cfg := dln.DefaultConfig()
			cfg.Epochs = 2
			cfg.NumLattices = 2
			cfg.LatticeDim = 2
			cfg.EmbedDim = 4
			m := dln.New(rand.New(rand.NewSource(5)), 3, cfg)
			m.Fit(queries)
			return m
		},
		"umnn": func() modelcodec.Estimator {
			_, queries := Workload(distance.Euclidean, 200, 3, 60)
			cfg := umnn.DefaultConfig()
			cfg.Epochs = 2
			cfg.QuadPoints = 4
			cfg.Hidden = []int{8}
			m := umnn.New(rand.New(rand.NewSource(5)), 3, cfg)
			m.Fit(queries)
			return m
		},
	}
}
