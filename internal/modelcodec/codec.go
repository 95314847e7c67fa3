// Package modelcodec is the registry-level model container: one
// kind-tagged serialization format that round-trips every servable
// estimator kind — SelNet (single and partitioned) plus the five
// consistent baselines (KDE, LSH sampling, LightGBM, DLN, UMNN).
//
// Servable means consistent: every model that enters the process from
// outside (-model, POST /v1/models/{name}, snapshot recovery) passes
// through Load or LoadFile, and both return ErrInconsistentKind unless
// estimator.IsConsistent holds for the decoded estimator — its estimates
// never decrease as t grows. That rejects a LightGBM fitted without the
// monotone constraint, and files tagged with a retired deep-baseline
// kind (DNN, MoE, RMI), which remain offline baselines in
// internal/experiments.
//
// It is the only model container. Its layout — an 8-byte magic, a
// gob-encoded kind string, then the model's own Save stream — is the one
// selnet's retired container wrote, so model files and snapshots written
// before this package existed load unchanged, and selnet-kind files
// written here load with older builds. Legacy untagged files ('selest
// train' output, bare Save streams) are sniffed through selnet's
// decoders. testdata/ holds one file of each legacy form.
//
// The package sits below internal/serve: serve, ingest and the daemons
// import it, and it encodes and decodes estimator.Estimator values.
package modelcodec

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"

	"selnet/internal/dln"
	"selnet/internal/estimator"
	"selnet/internal/gbm"
	"selnet/internal/kde"
	"selnet/internal/lshsampling"
	"selnet/internal/selnet"
	"selnet/internal/umnn"
)

// ErrInconsistentKind is returned for a model whose estimates are not
// guaranteed to be non-decreasing in t.
var ErrInconsistentKind = errors.New("modelcodec: model kind cannot guarantee estimates monotone in t")

// magic prefixes the kind-tagged container; identical to the retired
// selnet container so pre-existing files remain loadable in both
// directions.
const magic = "SELMODL1"

// kinds is every servable kind, written once: its slug (/v1/models and
// the router configuration), its wire tag and its decoder. The selnet
// wire tags must never change: model files on disk carry them
// (testdata/net-tagged.model).
var kinds = []struct {
	slug, wire string
	load       func(io.Reader) (estimator.Estimator, error)
}{
	{"selnet", "selnet.Net", func(r io.Reader) (estimator.Estimator, error) { return selnet.LoadNet(r) }},
	{"selnet-part", "selnet.Partitioned", func(r io.Reader) (estimator.Estimator, error) { return selnet.LoadPartitioned(r) }},
	{"kde", "kde.Estimator", func(r io.Reader) (estimator.Estimator, error) { return kde.Load(r) }},
	{"lsh", "lshsampling.Estimator", func(r io.Reader) (estimator.Estimator, error) { return lshsampling.Load(r) }},
	{"gbm", "gbm.SelectivityEstimator", func(r io.Reader) (estimator.Estimator, error) { return gbm.Load(r) }},
	{"dln", "dln.Model", func(r io.Reader) (estimator.Estimator, error) { return dln.Load(r) }},
	{"umnn", "umnn.Model", func(r io.Reader) (estimator.Estimator, error) { return umnn.Load(r) }},
}

// saver is the serialization every servable kind implements; Save
// writes its stream after the container's kind tag.
type saver interface {
	Save(w io.Writer) error
}

// Kind returns the slug of est's row in kinds, as /v1/models and the
// router configuration name it, or "unknown" for types the codec does
// not handle.
func Kind(est any) string {
	switch est.(type) {
	case *selnet.Net:
		return "selnet"
	case *selnet.Partitioned:
		return "selnet-part"
	case *kde.Estimator:
		return "kde"
	case *lshsampling.Estimator:
		return "lsh"
	case *gbm.SelectivityEstimator:
		return "gbm"
	case *dln.Model:
		return "dln"
	case *umnn.Model:
		return "umnn"
	}
	return "unknown"
}

// IsKind reports whether slug names a kind the codec serves.
func IsKind(slug string) bool {
	_, ok := wireTag(slug)
	return ok
}

// wireTag returns the container kind tag of the kind named slug.
func wireTag(slug string) (string, bool) {
	for _, k := range kinds {
		if k.slug == slug {
			return k.wire, true
		}
	}
	return "", false
}

// Save writes est to w in the kind-tagged container format.
func Save(w io.Writer, est estimator.Estimator) error {
	wire, ok := wireTag(Kind(est))
	s, canSave := est.(saver)
	if !ok || !canSave {
		return fmt.Errorf("modelcodec: cannot save model of type %T", est)
	}
	if _, err := io.WriteString(w, magic); err != nil {
		return fmt.Errorf("modelcodec: write magic: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(wire); err != nil {
		return fmt.Errorf("modelcodec: encode kind: %w", err)
	}
	return s.Save(w)
}

// Load reads one container written by Save (or by an older build).
// The reader may sit mid-stream, e.g. inside a snapshot file; exactly
// one container is consumed. A model that decodes but cannot guarantee
// consistency returns ErrInconsistentKind.
func Load(r io.Reader) (estimator.Estimator, error) {
	est, err := decode(r)
	if err != nil {
		return nil, err
	}
	return consistent(est)
}

// decode reads one container and dispatches on its kind tag.
func decode(r io.Reader) (estimator.Estimator, error) {
	// Consecutive gob messages share one stream; without a ByteReader
	// each decoder would buffer past its own message (see selnet.LoadNet).
	if _, ok := r.(io.ByteReader); !ok {
		r = bufio.NewReader(r)
	}
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(r, got); err != nil {
		return nil, fmt.Errorf("modelcodec: read magic: %w", err)
	}
	if string(got) != magic {
		return nil, fmt.Errorf("modelcodec: bad magic %q", got)
	}
	var kind string
	if err := gob.NewDecoder(r).Decode(&kind); err != nil {
		return nil, fmt.Errorf("modelcodec: decode kind: %w", err)
	}
	for _, k := range kinds {
		if k.wire == kind {
			return recovering(func() (estimator.Estimator, error) { return k.load(r) })
		}
	}
	switch kind {
	case "deepreg.DNN", "deepreg.MoE", "deepreg.RMI":
		// Older builds served the deep baselines; they are not consistent.
		return nil, fmt.Errorf("%w: retired kind %q", ErrInconsistentKind, kind)
	}
	return nil, fmt.Errorf("modelcodec: unknown model kind %q", kind)
}

// SaveFile writes est to path in the kind-tagged container format.
func SaveFile(path string, est estimator.Estimator) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := Save(f, est); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a model of any supported kind from path. Tagged
// containers dispatch on their kind; legacy untagged files — 'selest
// train' output or a bare (*Partitioned).Save stream — are sniffed by
// attempting each selnet decoder in turn, preserving the pre-codec
// loading behavior for operator-supplied paths. Either way the result
// passes the consistency gate.
func LoadFile(path string) (estimator.Estimator, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return loadBytes(path, b)
}

// loadBytes is LoadFile on the file's contents; name labels errors.
func loadBytes(name string, b []byte) (estimator.Estimator, error) {
	if bytes.HasPrefix(b, []byte(magic)) {
		return recovering(func() (estimator.Estimator, error) { return Load(bytes.NewReader(b)) })
	}
	est, netErr := recovering(func() (estimator.Estimator, error) { return selnet.LoadNet(bytes.NewReader(b)) })
	if netErr != nil {
		var partErr error
		est, partErr = recovering(func() (estimator.Estimator, error) { return selnet.LoadPartitioned(bytes.NewReader(b)) })
		if partErr != nil {
			return nil, fmt.Errorf("modelcodec: %s decodes as neither a single model (%w) nor a partitioned one (%w)",
				name, netErr, partErr)
		}
	}
	return consistent(est)
}

// consistent is the codec's consistency gate: it passes est through only
// if est promises estimates non-decreasing in t.
func consistent(est estimator.Estimator) (estimator.Estimator, error) {
	if !estimator.IsConsistent(est) {
		return nil, fmt.Errorf("%w: %s (%s)", ErrInconsistentKind, est.Name(), Kind(est))
	}
	return est, nil
}

// recovering converts a decoder panic into an error: a half-matching
// gob stream can decode into a nonsensical architecture the model
// constructors reject by panicking, and a daemon loading an
// operator-supplied path must survive that.
func recovering(fn func() (estimator.Estimator, error)) (est estimator.Estimator, err error) {
	defer func() {
		if r := recover(); r != nil {
			est, err = nil, fmt.Errorf("modelcodec: model decode: %v", r)
		}
	}()
	return fn()
}
