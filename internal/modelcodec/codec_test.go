package modelcodec_test

import (
	"bytes"
	"errors"
	"maps"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"

	"selnet/internal/modelcodec"
	"selnet/internal/modeltest"
	"selnet/internal/tensor"
)

// queryProbe evaluates a fixed probe workload so two estimators can be
// compared for behavioral equality.
func queryProbe(est modelcodec.Estimator) []float64 {
	rng := rand.New(rand.NewSource(42))
	dim := est.Dim()
	out := make([]float64, 0, 16)
	for i := 0; i < 8; i++ {
		x := make([]float64, dim)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		t := est.TMax() * rng.Float64()
		out = append(out, est.Estimate(x, t))
	}
	return out
}

// sortedKinds returns the builder map's keys in order, so subtests and
// seed corpora are stable across runs.
func sortedKinds(builders map[string]func() modelcodec.Estimator) []string {
	return slices.Sorted(maps.Keys(builders))
}

// TestRoundTripAllKinds saves and reloads one model of every kind and
// verifies kind tagging, metadata, and identical estimates.
func TestRoundTripAllKinds(t *testing.T) {
	builders := modeltest.Builders()
	for _, kind := range sortedKinds(builders) {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			est := builders[kind]()
			if got := modelcodec.Kind(est); got != kind {
				t.Fatalf("Kind = %q, want %q", got, kind)
			}
			var buf bytes.Buffer
			if err := modelcodec.Save(&buf, est); err != nil {
				t.Fatalf("save: %v", err)
			}
			got, err := modelcodec.Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if modelcodec.Kind(got) != kind {
				t.Fatalf("reloaded kind = %q, want %q", modelcodec.Kind(got), kind)
			}
			if got.Dim() != est.Dim() {
				t.Errorf("Dim = %d, want %d", got.Dim(), est.Dim())
			}
			if got.TMax() != est.TMax() {
				t.Errorf("TMax = %v, want %v", got.TMax(), est.TMax())
			}
			if got.Name() != est.Name() {
				t.Errorf("Name = %q, want %q", got.Name(), est.Name())
			}
			want := queryProbe(est)
			for i, v := range queryProbe(got) {
				if v != want[i] {
					t.Errorf("probe %d: reloaded estimate %v, want %v", i, v, want[i])
				}
			}
			// Batch path agrees after reload too.
			x := tensor.FromRows([][]float64{make([]float64, est.Dim())})
			if b := got.EstimateBatch(x, []float64{est.TMax() / 2}); len(b) != 1 {
				t.Errorf("EstimateBatch returned %d values, want 1", len(b))
			}
		})
	}
}

// TestFileRoundTrip exercises the path-based API.
func TestFileRoundTrip(t *testing.T) {
	est := builders(t, "kde")
	path := filepath.Join(t.TempDir(), "model.kde")
	if err := modelcodec.SaveFile(path, est); err != nil {
		t.Fatalf("save file: %v", err)
	}
	got, err := modelcodec.LoadFile(path)
	if err != nil {
		t.Fatalf("load file: %v", err)
	}
	if modelcodec.Kind(got) != "kde" {
		t.Fatalf("kind = %q", modelcodec.Kind(got))
	}
}

func builders(t *testing.T, kind string) modelcodec.Estimator {
	t.Helper()
	b, ok := modeltest.Builders()[kind]
	if !ok {
		t.Fatalf("no builder for kind %q", kind)
	}
	return b()
}

// legacyFixtures are model files in the formats earlier builds wrote —
// the selnet kind-tagged container and bare (*Net).Save /
// (*Partitioned).Save streams — each written from the modeltest builder
// of its kind.
var legacyFixtures = []struct {
	file, kind string
}{
	{"net-tagged.model", "selnet"},
	{"net-bare.gob", "selnet"},
	{"part-bare.gob", "selnet-part"},
}

// TestSelnetInterop verifies the container stays byte-compatible with
// the selnet container older builds wrote: the tagged fixture reloads,
// and both it and a freshly built twin re-save to its exact bytes. gob
// numbers wire types per process in order of first use, so the
// comparison runs in a fresh process of this test binary, as the
// fixture was written.
func TestSelnetInterop(t *testing.T) {
	if os.Getenv("MODELCODEC_INTEROP_CHILD") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSelnetInterop$")
		cmd.Env = append(os.Environ(), "MODELCODEC_INTEROP_CHILD=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("fresh-process check: %v\n%s", err, out)
		}
		return
	}
	want, err := os.ReadFile(filepath.Join("testdata", "net-tagged.model"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := modelcodec.Load(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("modelcodec.Load(selnet container): %v", err)
	}
	if modelcodec.Kind(got) != "selnet" {
		t.Fatalf("kind = %q", modelcodec.Kind(got))
	}
	for name, est := range map[string]modelcodec.Estimator{"reloaded": got, "rebuilt": builders(t, "selnet")} {
		var buf bytes.Buffer
		if err := modelcodec.Save(&buf, est); err != nil {
			t.Fatalf("%s: modelcodec.Save: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s: container bytes diverged from the legacy file", name)
		}
	}
}

// TestLegacySniffing verifies every legacy fixture — tagged or untagged
// — loads through LoadFile as the right concrete type and answers == to
// the model it was written from.
func TestLegacySniffing(t *testing.T) {
	for _, f := range legacyFixtures {
		got, err := modelcodec.LoadFile(filepath.Join("testdata", f.file))
		if err != nil {
			t.Fatalf("LoadFile(%s): %v", f.file, err)
		}
		if modelcodec.Kind(got) != f.kind {
			t.Fatalf("%s: kind = %q, want %q", f.file, modelcodec.Kind(got), f.kind)
		}
		want := queryProbe(builders(t, f.kind))
		for i, v := range queryProbe(got) {
			if v != want[i] {
				t.Fatalf("%s probe %d: loaded estimate %v, rebuilt %v", f.file, i, v, want[i])
			}
		}
	}
}

// TestLoadRejectsInconsistentKinds verifies the consistency gate: the
// retired deep-baseline tags and a LightGBM fitted without the monotone
// constraint fail with ErrInconsistentKind, through Load and LoadFile.
func TestLoadRejectsInconsistentKinds(t *testing.T) {
	dir := t.TempDir()
	for name, b := range modeltest.Inconsistent() {
		if _, err := modelcodec.Load(bytes.NewReader(b)); !errors.Is(err, modelcodec.ErrInconsistentKind) {
			t.Errorf("%s: Load err = %v, want ErrInconsistentKind", name, err)
		}
		path := filepath.Join(dir, "model")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := modelcodec.LoadFile(path); !errors.Is(err, modelcodec.ErrInconsistentKind) {
			t.Errorf("%s: LoadFile err = %v, want ErrInconsistentKind", name, err)
		}
	}
}

// TestLoadCorrupt verifies corrupt containers fail cleanly, without
// panicking.
func TestLoadCorrupt(t *testing.T) {
	if _, err := modelcodec.Load(bytes.NewReader([]byte("SELMODL1garbage"))); err == nil {
		t.Fatal("corrupt container loaded without error")
	}
	if _, err := modelcodec.Load(bytes.NewReader([]byte("NOTMAGIC"))); err == nil {
		t.Fatal("bad magic loaded without error")
	}
	dir := t.TempDir()
	if _, err := modelcodec.LoadFile(filepath.Join(dir, "missing.gob")); err == nil {
		t.Fatal("missing file loaded")
	}
	garbage := filepath.Join(dir, "garbage.gob")
	if err := os.WriteFile(garbage, []byte("SELMODL1 is not followed by a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := modelcodec.LoadFile(garbage); err == nil {
		t.Fatal("garbage tagged container loaded")
	}
}
