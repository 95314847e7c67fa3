package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"selnet/internal/distance"
	"selnet/internal/modelcodec"
	"selnet/internal/modeltest"
	"selnet/internal/vecdata"
)

// captureStdout runs fn and returns what it printed to standard output.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	runErr := fn()
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	return string(out)
}

// TestEvaluateAndEstimateLoadThroughCodec runs evaluate and estimate on
// a partitioned model written by the codec and on a legacy untagged
// single model written by Net.SaveFile ('selest train' output).
func TestEvaluateAndEstimateLoadThroughCodec(t *testing.T) {
	dir := t.TempDir()
	db, queries := modeltest.Workload(distance.Euclidean, 240, 3, 12)
	dataPath := filepath.Join(dir, "data.gob")
	if err := vecdata.SaveDatabaseFile(dataPath, db); err != nil {
		t.Fatal(err)
	}
	wlPath := filepath.Join(dir, "wl.gob")
	wl := &vecdata.SplitWorkload{Setting: db.Name, TMax: 1, Train: queries, Valid: queries, Test: queries}
	if err := vecdata.SaveSplitWorkloadFile(wlPath, wl); err != nil {
		t.Fatal(err)
	}

	partPath := filepath.Join(dir, "part.model")
	if err := modelcodec.SaveFile(partPath, modeltest.Builders()["selnet-part"]()); err != nil {
		t.Fatal(err)
	}
	legacyPath := filepath.Join(dir, "legacy.gob")
	if err := modeltest.TinySelNet(11, 3).SaveFile(legacyPath); err != nil {
		t.Fatal(err)
	}

	for _, model := range []string{partPath, legacyPath} {
		t.Run(filepath.Base(model), func(t *testing.T) {
			out := captureStdout(t, func() error {
				return cmdEvaluate([]string{"-model", model, "-workload", wlPath})
			})
			if !strings.HasPrefix(out, "test split (") {
				t.Fatalf("evaluate printed %q", out)
			}
			out = captureStdout(t, func() error {
				return cmdEstimate([]string{"-model", model, "-data", dataPath, "-index", "0,1", "-t", "0.1,0.5"})
			})
			// A header and one row per (query, threshold) pair.
			if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 5 || !strings.Contains(lines[0], "estimated") {
				t.Fatalf("estimate printed %q", out)
			}
		})
	}
}
