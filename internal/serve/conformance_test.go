package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"selnet/internal/modelcodec"
	"selnet/internal/modeltest"
	"selnet/internal/tensor"
)

// The Estimator contract every servable kind must honor to sit behind
// the registry: estimates never decrease as t grows (the paper's
// consistency, with no per-kind exemptions), scalar and batch estimation
// agree, the self-reported shape is sane, and concurrent reads are
// race-free (the registry hot-swaps models under live traffic, so
// estimators must be immutable once published). The suite runs over every kind the codec registers —
// adding a kind to modeltest.Builders enrolls it here automatically.

// kindsInOrder returns the builder map's keys sorted, so subtest order
// (and failure output) is stable across runs.
func kindsInOrder(builders map[string]func() modelcodec.Estimator) []string {
	kinds := make([]string, 0, len(builders))
	for k := range builders {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// probes builds a deterministic set of (query, threshold) pairs covering
// the estimator's input space, including the t=0 and t=TMax edges.
func probes(dim int, tmax float64) ([][]float64, []float64) {
	qs := make([][]float64, 0, 5)
	for i := 0; i < 5; i++ {
		q := make([]float64, dim)
		for j := range q {
			// Deterministic, varied, includes negatives.
			q[j] = math.Sin(float64(i*dim+j)+0.5) * 0.8
		}
		qs = append(qs, q)
	}
	ts := []float64{0, tmax * 0.25, tmax * 0.5, tmax * 0.75, tmax}
	return qs, ts
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

func TestEstimatorConformance(t *testing.T) {
	builders := modeltest.Builders()
	for _, kind := range kindsInOrder(builders) {
		build := builders[kind]
		t.Run(kind, func(t *testing.T) {
			est := Estimator(build())

			// Shape sanity: the registry and router both trust these.
			if est.Name() == "" {
				t.Error("Name() is empty")
			}
			if d := est.Dim(); d <= 0 {
				t.Errorf("Dim() = %d, want > 0", d)
			}
			if tm := est.TMax(); tm <= 0 || math.IsNaN(tm) || math.IsInf(tm, 0) {
				t.Errorf("TMax() = %g, want finite > 0", tm)
			}

			qs, ts := probes(est.Dim(), est.TMax())
			want := make([]float64, 0, len(qs)*len(ts))
			x := tensor.New(len(qs)*len(ts), est.Dim())
			tcol := make([]float64, 0, len(qs)*len(ts))
			for _, q := range qs {
				for _, tt := range ts {
					y := est.Estimate(q, tt)
					if math.IsNaN(y) || math.IsInf(y, 0) {
						t.Fatalf("Estimate(%v, %g) = %g, want finite", q, tt, y)
					}
					copy(x.Row(len(tcol)), q)
					tcol = append(tcol, tt)
					want = append(want, y)
				}
			}

			// EstimateBatch must agree with the scalar path pair-for-pair:
			// the server batches transparently, so a divergence would make
			// an estimate depend on traffic shape.
			got := est.EstimateBatch(x, tcol)
			if len(got) != len(want) {
				t.Fatalf("EstimateBatch returned %d estimates for %d pairs", len(got), len(want))
			}
			for i := range want {
				if diff := math.Abs(got[i] - want[i]); diff > 1e-9*(1+math.Abs(want[i])) {
					t.Errorf("pair %d: batch %g vs scalar %g", i, got[i], want[i])
				}
			}

			// Ladders must agree exactly: grouping rows by vector is an
			// evaluation strategy, never a change in the answer.
			lx, lts := ladderProbes(est.Dim(), est.TMax())
			batch := est.EstimateBatch(lx, lts)
			scalar := make([]float64, len(lts))
			for i, y := range batch {
				if scalar[i] = est.Estimate(lx.Row(i), lts[i]); y != scalar[i] {
					t.Errorf("ladder row %d: batch %g vs scalar %g", i, y, scalar[i])
				}
			}

			// Consistency: every servable kind promises it, and both
			// paths keep it along each ladder vector.
			if c, ok := est.(interface{ ConsistencyGuaranteed() bool }); !ok || !c.ConsistencyGuaranteed() {
				t.Errorf("%s does not report ConsistencyGuaranteed()", est.Name())
			}
			assertMonotoneInT(t, "Estimate", lx, lts, scalar)
			assertMonotoneInT(t, "EstimateBatch", lx, lts, batch)

			// Concurrent reads must be race-free (run under -race in CI):
			// published estimators serve many goroutines at once.
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						q := qs[(w+i)%len(qs)]
						tt := ts[(w+i)%len(ts)]
						if y := est.Estimate(q, tt); math.IsNaN(y) {
							t.Errorf("concurrent Estimate returned NaN")
							return
						}
					}
				}(w)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 5; i++ {
						est.EstimateBatch(x, tcol)
					}
				}()
			}
			wg.Wait()
		})
	}
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
		if want := est.Estimate(q, tt); math.Abs(out.Estimate-want) > 1e-9*(1+math.Abs(want)) {
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
