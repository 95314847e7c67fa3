package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"selnet/internal/distance"
	"selnet/internal/modelcodec"
	"selnet/internal/selnet"
	"selnet/internal/vecdata"
)

// The data set and both models are inputs of the benchmark, the same
// for every -seed: a model per seed would put the models' own
// seed-to-seed accuracy differences into qerror_p50 and cost 16 s a run.
// A change to any of these constants names a new cache directory.
const (
	fixtureSeed  = 1
	fxVectors    = 10000
	fxDim        = 64
	fxQueries    = 256 // query vectors in the labelled workload
	fxThresholds = 8   // ascending thresholds per query vector
	fxEpochs     = 20
	fxPartitions = 3
)

// fixtures is what every workload starts from: the ft64 data set (on
// disk as CSV for the daemon, in memory as the driver's mirror), the
// held-out test queries, and the two trained models' files.
type fixtures struct {
	dir      string
	csvPath  string
	ctPath   string
	partPath string
	db       *vecdata.Database
	split    *vecdata.SplitWorkload
	// buildS is the time spent generating and training, 0 when the cache
	// already held the fixtures.
	buildS float64
}

// modelPath is the file of the fixture model served under name.
func (fx *fixtures) modelPath(name string) string {
	if name == "part" {
		return fx.partPath
	}
	return fx.ctPath
}

// testVectors groups the held-out queries by vector: each group carries
// one vector's fxThresholds thresholds in ascending order.
func (fx *fixtures) testVectors() [][]vecdata.Query {
	var out [][]vecdata.Query
	for i := 0; i+fxThresholds <= len(fx.split.Test); i += fxThresholds {
		out = append(out, fx.split.Test[i:i+fxThresholds])
	}
	return out
}

// loadFixtures returns the fixtures, building and caching them under
// work on first use.
func loadFixtures(work string) (*fixtures, error) {
	dir := filepath.Join(work, fmt.Sprintf("fixtures-s%d-n%d-d%d-q%dx%d-e%d-k%d",
		fixtureSeed, fxVectors, fxDim, fxQueries, fxThresholds, fxEpochs, fxPartitions))
	fx := &fixtures{
		dir:      dir,
		csvPath:  filepath.Join(dir, "ft64.csv"),
		ctPath:   filepath.Join(dir, "ct.gob"),
		partPath: filepath.Join(dir, "part.gob"),
	}
	if _, err := os.Stat(filepath.Join(dir, "ok")); err != nil {
		start := time.Now()
		if err := buildFixtures(fx); err != nil {
			return nil, fmt.Errorf("build fixtures: %w", err)
		}
		fx.buildS = time.Since(start).Seconds()
	}
	var err error
	// The mirror is read back from the CSV the daemon parses, so both
	// sides hold bit-identical vectors.
	if fx.db, err = vecdata.ReadCSVFile(fx.csvPath, distance.Euclidean); err != nil {
		return nil, fmt.Errorf("fixtures: %w", err)
	}
	if fx.split, err = vecdata.LoadSplitWorkloadFile(filepath.Join(dir, "workload.gob")); err != nil {
		return nil, fmt.Errorf("fixtures: %w", err)
	}
	if len(fx.testVectors()) == 0 {
		return nil, fmt.Errorf("fixtures: %s holds no test queries", dir)
	}
	return fx, nil
}

// buildFixtures generates into a scratch directory and renames it into
// place, so an interrupted build never leaves a half-written cache.
func buildFixtures(fx *fixtures) error {
	tmp, err := os.MkdirTemp(filepath.Dir(fx.dir), "fixtures-build-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	rng := rand.New(rand.NewSource(fixtureSeed))
	db := vecdata.SyntheticFasttext(rng, fxVectors, fxDim, distance.Euclidean)
	f, err := os.Create(filepath.Join(tmp, "ft64.csv"))
	if err != nil {
		return err
	}
	if err := vecdata.WriteCSV(f, db); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	wl := vecdata.GeometricWorkload(rng, db, fxQueries, fxThresholds)
	train, valid, test := wl.Split(rng)
	split := &vecdata.SplitWorkload{Setting: "ft64-l2", TMax: wl.TMax, Train: train, Valid: valid, Test: test}
	if err := vecdata.SaveSplitWorkloadFile(filepath.Join(tmp, "workload.gob"), split); err != nil {
		return err
	}

	cfg := selnet.DefaultConfig()
	cfg.TMax = wl.TMax
	tc := selnet.DefaultTrainConfig()
	tc.Epochs = fxEpochs
	tc.Seed = fixtureSeed
	ct := selnet.NewNet(rng, db.Dim, cfg)
	ct.Fit(tc, db, train, valid)
	if err := modelcodec.SaveFile(filepath.Join(tmp, "ct.gob"), ct); err != nil {
		return err
	}

	pcfg := selnet.DefaultPartitionedConfig()
	pcfg.Model = cfg
	pcfg.K = fxPartitions
	part := selnet.NewPartitioned(rng, db, pcfg)
	part.Fit(tc, db, train, valid)
	if err := modelcodec.SaveFile(filepath.Join(tmp, "part.gob"), part); err != nil {
		return err
	}

	if err := os.WriteFile(filepath.Join(tmp, "ok"), nil, 0o644); err != nil {
		return err
	}
	if err := os.RemoveAll(fx.dir); err != nil {
		return err
	}
	return os.Rename(tmp, fx.dir)
}
