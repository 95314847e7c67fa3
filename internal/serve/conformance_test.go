package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"selnet/internal/estimator"
	"selnet/internal/modelcodec"
	"selnet/internal/modeltest"
	"selnet/internal/tensor"
)

// Helpers shared by the fleet tests below and by the capability table
// of package serve_test (capability_test.go), which holds every kind to
// the estimator contract.

// Exported to package serve_test.
var (
	LadderProbes      = ladderProbes
	AssertMonotoneInT = assertMonotoneInT
)

// kindsInOrder returns the builder map's keys sorted, so subtest order
// (and failure output) is stable across runs.
func kindsInOrder(builders map[string]func() estimator.Estimator) []string {
	kinds := make([]string, 0, len(builders))
	for k := range builders {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// ladderProbes builds threshold ladders — runs of adjacent rows sharing
// one vector, the shape batch estimators may evaluate once per run: runs
// of 1, 8 and 65 rows, more than 64 distinct runs, a vector repeated
// non-adjacently, two rows differing only in the sign of a zero, and
// thresholds unsorted within a run.
func ladderProbes(dim int, tmax float64) (*tensor.Dense, []float64) {
	var rows [][]float64
	var ts []float64
	vec := func(i int) []float64 {
		q := make([]float64, dim)
		for j := range q {
			q[j] = math.Cos(float64(i*dim+j)*0.7) * 0.8
		}
		return q
	}
	run := func(q []float64, n int) {
		for i := 0; i < n; i++ {
			// Unsorted: 0, 3/7, 6/7, 2/7, ... of [-0.1, 1.1]·tmax.
			ts = append(ts, (float64(i*3%7)/7*1.2-0.1)*tmax)
			rows = append(rows, q)
		}
	}
	run(vec(0), 8)
	run(vec(1), 1)
	run(vec(2), 65)
	pos := vec(3)
	pos[0] = 0
	neg := append([]float64(nil), pos...)
	neg[0] = math.Copysign(0, -1)
	run(pos, 1)
	run(neg, 1)
	for i := 0; i < 70; i++ {
		run(vec(4+i), 1+i%8)
	}
	run(vec(0), 3)
	return tensor.FromRows(rows), ts
}

// assertMonotoneInT groups the rows of x by vector (bit for bit), sorts
// each group by threshold and fails on any estimate that decreases as t
// grows.
func assertMonotoneInT(t *testing.T, path string, x *tensor.Dense, ts, ys []float64) {
	t.Helper()
	groups := map[string][]int{}
	for i := range ts {
		key := fmt.Sprint(vecBits(x.Row(i)))
		groups[key] = append(groups[key], i)
	}
	for _, rows := range groups {
		sort.SliceStable(rows, func(a, b int) bool { return ts[rows[a]] < ts[rows[b]] })
		for k := 1; k < len(rows); k++ {
			lo, hi := rows[k-1], rows[k]
			if ys[hi] < ys[lo] {
				t.Errorf("%s decreases in t: row %d (t=%g) = %g, row %d (t=%g) = %g",
					path, lo, ts[lo], ys[lo], hi, ts[hi], ys[hi])
			}
		}
	}
}

func vecBits(v []float64) []uint64 {
	bits := make([]uint64, len(v))
	for i, f := range v {
		bits[i] = math.Float64bits(f)
	}
	return bits
}

// TestEveryKindServesOverHTTP is the fleet e2e: every estimator kind is
// saved with the kind-tagged codec, loaded through POST /v1/models,
// served through the batched estimate path, listed with its kind in
// GET /v1/models, and hot-swapped in place.
func TestEveryKindServesOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("fits one model per estimator kind")
	}
	_, ts := newTestServer(t, Config{
		Cache: CacheConfig{Capacity: 64},
	})
	dir := t.TempDir()
	builders := modeltest.Builders()
	kinds := kindsInOrder(builders)

	built := map[string]Estimator{}
	for _, kind := range kinds {
		est := builders[kind]()
		built[kind] = est
		path := filepath.Join(dir, kind+".gob")
		if err := modelcodec.SaveFile(path, est); err != nil {
			t.Fatalf("save %s: %v", kind, err)
		}
		resp, body := postJSON(t, ts.URL+"/v1/models/"+kind, map[string]string{"path": path})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("load %s: %d %s", kind, resp.StatusCode, body)
		}
	}

	// Every kind answers estimates through the batcher, agreeing with
	// the in-process model it round-tripped from.
	for _, kind := range kinds {
		est := built[kind]
		q := make([]float64, est.Dim())
		for j := range q {
			q[j] = 0.1 * float64(j+1)
		}
		tt := est.TMax() / 2
		var out struct {
			Estimate float64 `json:"estimate"`
		}
		resp, body := postJSON(t, ts.URL+"/v1/estimate",
			map[string]any{"model": kind, "query": q, "t": tt})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate via %s: %d %s", kind, resp.StatusCode, body)
		}
		mustUnmarshal(t, body, &out)
		if want := est.Estimate(q, tt); math.Float64bits(out.Estimate) != math.Float64bits(want) {
			t.Errorf("%s over HTTP = %g, in-process %g", kind, out.Estimate, want)
		}
	}

	// The redesigned listing names each model's kind and architecture.
	var list struct {
		Models []struct {
			Name       string  `json:"name"`
			Kind       string  `json:"kind"`
			Estimator  string  `json:"estimator"`
			Dim        int     `json:"dim"`
			TMax       float64 `json:"t_max"`
			Generation uint64  `json:"generation"`
			Partitions int     `json:"partitions"`
		} `json:"models"`
	}
	getJSON(t, ts.URL+"/v1/models", &list)
	if len(list.Models) != len(kinds) {
		t.Fatalf("listing has %d models, want %d", len(list.Models), len(kinds))
	}
	byName := map[string]int{}
	for i, m := range list.Models {
		byName[m.Name] = i
	}
	for _, kind := range kinds {
		i, ok := byName[kind]
		if !ok {
			t.Errorf("kind %s missing from listing", kind)
			continue
		}
		m := list.Models[i]
		if m.Kind != kind {
			t.Errorf("model %s listed with kind %q", kind, m.Kind)
		}
		if m.Estimator == "" || m.Dim != built[kind].Dim() || m.TMax != built[kind].TMax() {
			t.Errorf("model %s listing %+v disagrees with the estimator", kind, m)
		}
		if kind == "selnet-part" && m.Partitions == 0 {
			t.Errorf("partitioned model listed without a partition count")
		}
	}

	// /stats carries a plans block for both SelNet kinds, counting the
	// row each estimate above pushed through the compiled plans.
	var stats statsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	plans := map[string]uint64{}
	for _, m := range stats.Models {
		if m.Plans != nil {
			plans[m.Name] = m.Plans.Rows
		}
	}
	for _, kind := range []string{"selnet", "selnet-part"} {
		if plans[kind] == 0 {
			t.Errorf("/stats plans rows by model = %v, want rows for %s", plans, kind)
		}
	}

	// Hot-swap: re-POST each file and the generation must advance while
	// serving continues (same bytes, new registry generation).
	for _, kind := range kinds {
		var mi struct {
			Generation uint64 `json:"generation"`
		}
		resp, body := postJSON(t, ts.URL+"/v1/models/"+kind,
			map[string]string{"path": filepath.Join(dir, kind+".gob")})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("hot-swap %s: %d %s", kind, resp.StatusCode, body)
		}
		mustUnmarshal(t, body, &mi)
		if mi.Generation != 2 {
			t.Errorf("%s generation after swap = %d, want 2", kind, mi.Generation)
		}
	}
}

// TestLoadRejectsInconsistentKindsOverHTTP verifies the codec's
// consistency gate at the API: files tagged with a retired deep-baseline
// kind and a LightGBM fitted without the monotone constraint answer 400
// inconsistent_kind, whether they would add a model or replace one, and
// the registry is left as it was.
func TestLoadRejectsInconsistentKindsOverHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	dir := t.TempDir()
	good := filepath.Join(dir, "kde.gob")
	if err := modelcodec.SaveFile(good, modeltest.Builders()["kde"]()); err != nil {
		t.Fatal(err)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/models/m", map[string]string{"path": good}); resp.StatusCode != http.StatusOK {
		t.Fatalf("load kde: %d %s", resp.StatusCode, body)
	}

	for file, b := range modeltest.Inconsistent() {
		path := filepath.Join(dir, "inconsistent.model")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"m", "fresh"} {
			resp, body := postJSON(t, ts.URL+"/v1/models/"+name, map[string]string{"path": path})
			var e errorResponse
			mustUnmarshal(t, body, &e)
			if resp.StatusCode != http.StatusBadRequest || e.Error.Code != "inconsistent_kind" {
				t.Errorf("load %s as %s: %d %s, want 400 inconsistent_kind", file, name, resp.StatusCode, body)
			}
		}
	}

	models := s.Registry().List()
	if len(models) != 1 || models[0].Name != "m" || models[0].Generation != 1 || modelcodec.Kind(models[0].Est) != "kde" {
		t.Fatalf("registry changed by rejected loads: %+v", models)
	}
}

func mustUnmarshal(t *testing.T, body []byte, out any) {
	t.Helper()
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
}
