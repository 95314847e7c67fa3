package modelcodec_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"selnet/internal/estimator"
	"selnet/internal/modelcodec"
	"selnet/internal/modeltest"
)

// FuzzLoad drives LoadFile's bytes-to-estimator path, tagged and
// legacy-sniffed: it must never panic, and whatever it returns must
// promise consistency. The seed corpus — the legacy fixtures, one Save
// of every servable kind and a retired deep-baseline header — runs in
// every plain go test.
func FuzzLoad(f *testing.F) {
	for _, fx := range legacyFixtures {
		b, err := os.ReadFile(filepath.Join("testdata", fx.file))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	builders := modeltest.Builders()
	for _, kind := range sortedKinds(builders) {
		var buf bytes.Buffer
		if err := modelcodec.Save(&buf, builders[kind]()); err != nil {
			f.Fatalf("save %s: %v", kind, err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(modeltest.Inconsistent()["deepreg.DNN"])
	f.Fuzz(func(t *testing.T, b []byte) {
		est, err := modelcodec.LoadBytes("fuzz", b)
		if err != nil {
			return
		}
		if !estimator.IsConsistent(est) {
			t.Fatalf("loaded %s (%s) without a consistency guarantee", est.Name(), modelcodec.Kind(est))
		}
	})
}
