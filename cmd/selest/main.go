// Command selest is the end-to-end CLI for the SelNet selectivity
// estimator: generate a synthetic dataset, build a labelled workload,
// train a model, evaluate it, and answer ad-hoc selectivity queries.
//
// Typical session:
//
//	selest gen      -setting fasttext-cos -n 2000 -dim 16 -out data.gob
//	selest workload -data data.gob -queries 100 -w 8 -out wl.gob
//	selest train    -data data.gob -workload wl.gob -epochs 40 -out model.gob
//	selest evaluate -model model.gob -workload wl.gob
//	selest estimate -model model.gob -data data.gob -index 7 -t 0.25
//	selest estimate -model model.gob -data data.gob -index 7,8,9 -t 0.1,0.25
//
// Comma-separated -index and -t lists estimate every (query, threshold)
// pair in one batched tensor pass — the same path selestd serves.
// evaluate and estimate load -model through the model codec, as selestd
// does: any consistent kind it serves, tagged or legacy untagged.
//
// Against a running selestd, 'selest models -addr http://host:8080'
// prints the daemon's model listing: every loaded estimator's kind,
// dimensionality, t_max, registry generation, source, partition count,
// and — with -router set on the daemon — its current router assignment.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"selnet/internal/distance"
	"selnet/internal/metrics"
	"selnet/internal/modelcodec"
	"selnet/internal/selnet"
	"selnet/internal/tensor"
	"selnet/internal/vecdata"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "workload":
		err = cmdWorkload(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "evaluate":
		err = cmdEvaluate(os.Args[2:])
	case "estimate":
		err = cmdEstimate(os.Args[2:])
	case "models":
		err = cmdModels(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "selest: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "selest: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `selest - consistent selectivity estimation for high-dimensional data

commands:
  gen       generate a synthetic vector dataset
  workload  build a labelled (query, threshold, selectivity) workload
  train     train a SelNet estimator
  evaluate  report MSE/MAE/MAPE of a trained model on a workload split
  estimate  estimate the selectivity of one or more (query, threshold) pairs
  models    list the models a running selestd serves (kind, dim, router assignment)

run 'selest <command> -h' for command flags.
`)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	setting := fs.String("setting", "fasttext-cos", "dataset stand-in: fasttext-cos, fasttext-l2, face-cos, youtube-cos")
	n := fs.Int("n", 2000, "number of vectors")
	dim := fs.Int("dim", 16, "dimensionality")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("out", "data.gob", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	var db *vecdata.Database
	switch *setting {
	case "fasttext-cos":
		db = vecdata.SyntheticFasttext(rng, *n, *dim, distance.Cosine)
	case "fasttext-l2":
		db = vecdata.SyntheticFasttext(rng, *n, *dim, distance.Euclidean)
	case "face-cos":
		db = vecdata.SyntheticFace(rng, *n, *dim)
	case "youtube-cos":
		db = vecdata.SyntheticYouTube(rng, *n, *dim)
	default:
		return fmt.Errorf("unknown setting %q", *setting)
	}
	if err := vecdata.SaveDatabaseFile(*out, db); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d vectors, dim %d, distance %v\n", *out, db.Size(), db.Dim, db.Dist)
	return nil
}

func cmdWorkload(args []string) error {
	fs := flag.NewFlagSet("workload", flag.ExitOnError)
	dataPath := fs.String("data", "data.gob", "dataset file (.gob from 'selest gen', or .csv of comma-separated vectors)")
	dist := fs.String("dist", "cos", "distance for .csv datasets: cos or l2")
	queries := fs.Int("queries", 100, "number of query vectors")
	w := fs.Int("w", 8, "thresholds per query (geometric selectivity sequence)")
	seed := fs.Int64("seed", 2, "random seed")
	out := fs.String("out", "wl.gob", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, err := loadAnyDatabase(*dataPath, *dist)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	wl := vecdata.GeometricWorkload(rng, db, *queries, *w)
	train, valid, test := wl.Split(rng)
	s := &vecdata.SplitWorkload{
		Setting: db.Name, TMax: wl.TMax,
		Train: train, Valid: valid, Test: test,
	}
	if err := vecdata.SaveSplitWorkloadFile(*out, s); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d/%d/%d train/valid/test queries, t_max %.4f\n",
		*out, len(train), len(valid), len(test), wl.TMax)
	return nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	dataPath := fs.String("data", "data.gob", "dataset file (.gob or .csv)")
	dist := fs.String("dist", "cos", "distance for .csv datasets: cos or l2")
	wlPath := fs.String("workload", "wl.gob", "workload file")
	epochs := fs.Int("epochs", 40, "training epochs")
	controlPoints := fs.Int("l", 20, "interior control points L")
	lr := fs.Float64("lr", 3e-3, "learning rate")
	seed := fs.Int64("seed", 3, "random seed")
	out := fs.String("out", "model.gob", "output model file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, err := loadAnyDatabase(*dataPath, *dist)
	if err != nil {
		return err
	}
	wl, err := vecdata.LoadSplitWorkloadFile(*wlPath)
	if err != nil {
		return err
	}
	cfg := selnet.DefaultConfig()
	cfg.TMax = wl.TMax
	cfg.L = *controlPoints
	tc := selnet.DefaultTrainConfig()
	tc.Epochs = *epochs
	tc.LR = *lr
	tc.Seed = *seed
	rng := rand.New(rand.NewSource(*seed))
	net := selnet.NewNet(rng, db.Dim, cfg)
	fmt.Printf("training SelNet-ct: dim %d, L=%d, %d epochs on %d queries...\n",
		db.Dim, cfg.L, tc.Epochs, len(wl.Train))
	net.Fit(tc, db, wl.Train, wl.Valid)
	if err := net.SaveFile(*out); err != nil {
		return err
	}
	e := metrics.Evaluate(net, wl.Valid)
	fmt.Printf("wrote %s (validation: MSE %.4g, MAE %.4g, MAPE %.3f)\n", *out, e.MSE, e.MAE, e.MAPE)
	return nil
}

func cmdEvaluate(args []string) error {
	fs := flag.NewFlagSet("evaluate", flag.ExitOnError)
	modelPath := fs.String("model", "model.gob", "trained model file")
	wlPath := fs.String("workload", "wl.gob", "workload file")
	split := fs.String("split", "test", "split to evaluate: train, valid or test")
	if err := fs.Parse(args); err != nil {
		return err
	}
	est, err := modelcodec.LoadFile(*modelPath)
	if err != nil {
		return err
	}
	wl, err := vecdata.LoadSplitWorkloadFile(*wlPath)
	if err != nil {
		return err
	}
	var queries []vecdata.Query
	switch *split {
	case "train":
		queries = wl.Train
	case "valid":
		queries = wl.Valid
	case "test":
		queries = wl.Test
	default:
		return fmt.Errorf("unknown split %q", *split)
	}
	e := metrics.Evaluate(est, queries)
	ms := metrics.AvgEstimationTime(est, queries)
	fmt.Printf("%s split (%d queries): MSE %.4g  MAE %.4g  MAPE %.3f  avg est. time %.4f ms\n",
		*split, len(queries), e.MSE, e.MAE, e.MAPE, ms)
	return nil
}

func cmdEstimate(args []string) error {
	fs := flag.NewFlagSet("estimate", flag.ExitOnError)
	modelPath := fs.String("model", "model.gob", "trained model file")
	dataPath := fs.String("data", "", "dataset file, .gob or .csv (for -index queries and exact counts)")
	dist := fs.String("dist", "cos", "distance for .csv datasets: cos or l2")
	indexStr := fs.String("index", "", "comma-separated database vector indices to use as queries")
	vecStr := fs.String("vec", "", "comma-separated query vector (alternative to -index)")
	tStr := fs.String("t", "0.1", "comma-separated distance thresholds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	est, err := modelcodec.LoadFile(*modelPath)
	if err != nil {
		return err
	}
	var db *vecdata.Database
	if *dataPath != "" {
		if db, err = loadAnyDatabase(*dataPath, *dist); err != nil {
			return err
		}
	}
	ts, err := parseVector(*tStr)
	if err != nil {
		return fmt.Errorf("bad -t: %w", err)
	}

	// Collect the query vectors: one from -vec, or any number from the
	// comma-separated -index list.
	var queries [][]float64
	var labels []string
	switch {
	case *vecStr != "" && *indexStr != "":
		return fmt.Errorf("provide -index or -vec, not both")
	case *vecStr != "":
		x, err := parseVector(*vecStr)
		if err != nil {
			return err
		}
		queries, labels = [][]float64{x}, []string{"vec"}
	case *indexStr != "":
		if db == nil {
			return fmt.Errorf("-index requires -data")
		}
		for _, part := range strings.Split(*indexStr, ",") {
			idx, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad index %q: %w", part, err)
			}
			if idx < 0 || idx >= db.Size() {
				return fmt.Errorf("index %d out of range (database holds %d vectors)", idx, db.Size())
			}
			queries = append(queries, db.Vecs[idx])
			labels = append(labels, fmt.Sprintf("#%d", idx))
		}
	default:
		return fmt.Errorf("provide a query via -index or -vec")
	}
	for _, x := range queries {
		if len(x) != est.Dim() {
			return fmt.Errorf("query has dim %d, model expects %d", len(x), est.Dim())
		}
	}

	// One estimate per (query, threshold) pair, computed in a single
	// EstimateBatch tensor pass — the same path selestd serves.
	x := tensor.New(len(queries)*len(ts), est.Dim())
	tcol := make([]float64, 0, len(queries)*len(ts))
	for _, q := range queries {
		for _, t := range ts {
			copy(x.Row(len(tcol)), q)
			tcol = append(tcol, t)
		}
	}
	ests := est.EstimateBatch(x, tcol)

	if len(ests) == 1 {
		fmt.Printf("estimated selectivity at t=%.4f: %.2f\n", ts[0], ests[0])
		if db != nil {
			fmt.Printf("exact selectivity:               %.0f\n", db.Selectivity(queries[0], ts[0]))
		}
		return nil
	}
	if db != nil {
		fmt.Printf("%8s %10s %12s %10s\n", "query", "t", "estimated", "exact")
	} else {
		fmt.Printf("%8s %10s %12s\n", "query", "t", "estimated")
	}
	for i, q := range queries {
		for j, t := range ts {
			v := ests[i*len(ts)+j]
			if db != nil {
				fmt.Printf("%8s %10.4f %12.2f %10.0f\n", labels[i], t, v, db.Selectivity(q, t))
			} else {
				fmt.Printf("%8s %10.4f %12.2f\n", labels[i], t, v)
			}
		}
	}
	return nil
}

// cmdModels prints the model listing of a running selestd: one line per
// loaded estimator with its codec kind, architecture, shape, registry
// generation, and current workload-router assignment.
func cmdModels(args []string) error {
	fs := flag.NewFlagSet("models", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "base URL of a running selestd")
	asJSON := fs.Bool("json", false, "print the raw JSON listing instead of a table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	resp, err := http.Get(strings.TrimRight(*addr, "/") + "/v1/models")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Every selestd error is the uniform {"error":{code,message}}
		// envelope; surface its fields rather than the raw body.
		var e struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error.Code != "" {
			return fmt.Errorf("%s: %s (%s)", resp.Status, e.Error.Message, e.Error.Code)
		}
		return fmt.Errorf("GET /v1/models: %s", resp.Status)
	}
	var out struct {
		Models []struct {
			Name       string    `json:"name"`
			Kind       string    `json:"kind"`
			Estimator  string    `json:"estimator"`
			Dim        int       `json:"dim"`
			TMax       float64   `json:"t_max"`
			Source     string    `json:"source"`
			Generation uint64    `json:"generation"`
			LoadedAt   time.Time `json:"loaded_at"`
			Partitions int       `json:"partitions"`
			Router     []string  `json:"router"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return fmt.Errorf("decode /v1/models: %w", err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	if len(out.Models) == 0 {
		fmt.Println("no models loaded")
		return nil
	}
	fmt.Printf("%-12s %-12s %-14s %5s %8s %4s %5s %-14s %s\n",
		"NAME", "KIND", "ESTIMATOR", "DIM", "TMAX", "GEN", "PARTS", "ROUTER", "SOURCE")
	for _, m := range out.Models {
		parts := "-"
		if m.Partitions > 0 {
			parts = strconv.Itoa(m.Partitions)
		}
		router := "-"
		if len(m.Router) > 0 {
			router = strings.Join(m.Router, ",")
		}
		fmt.Printf("%-12s %-12s %-14s %5d %8.4f %4d %5s %-14s %s\n",
			m.Name, m.Kind, m.Estimator, m.Dim, m.TMax, m.Generation, parts, router, m.Source)
	}
	return nil
}

// loadAnyDatabase reads a dataset from a gob file written by 'selest gen'
// or, when the path ends in .csv, from a CSV of comma-separated vectors
// (one per line) under the given distance function.
func loadAnyDatabase(path, dist string) (*vecdata.Database, error) {
	if strings.HasSuffix(path, ".csv") {
		d, err := distance.Parse(dist)
		if err != nil {
			return nil, err
		}
		return vecdata.ReadCSVFile(path, d)
	}
	return vecdata.LoadDatabaseFile(path)
}

func parseVector(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	v := make([]float64, len(parts))
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad vector component %q: %w", p, err)
		}
		v[i] = f
	}
	return v, nil
}
