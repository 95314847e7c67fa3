package selnet

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"os"

	"selnet/internal/distance"
	"selnet/internal/nn"
	"selnet/internal/partition"
)

// netHeader is the gob wire form of a Net's architecture.
type netHeader struct {
	Dim int
	Cfg Config
}

// Save writes the model (architecture + parameters) to w.
func (n *Net) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(netHeader{Dim: n.dim, Cfg: n.cfg}); err != nil {
		return fmt.Errorf("selnet: encode header: %w", err)
	}
	return nn.SaveParams(w, n.Params())
}

// LoadNet reads a model written by Save. The network is rebuilt from the
// stored configuration and its parameters restored, so estimates match
// the saved model exactly.
func LoadNet(r io.Reader) (*Net, error) {
	// The stream holds two consecutive gob messages (header, parameters).
	// A reader without ReadByte would be wrapped in a buffered reader by
	// each gob.Decoder independently, and the first would over-read past
	// its message; wrapping once here keeps the decoders aligned.
	if _, ok := r.(io.ByteReader); !ok {
		r = bufio.NewReader(r)
	}
	var h netHeader
	if err := gob.NewDecoder(r).Decode(&h); err != nil {
		return nil, fmt.Errorf("selnet: decode header: %w", err)
	}
	// The RNG only seeds initial weights, which LoadParams overwrites.
	n := NewNet(rand.New(rand.NewSource(0)), h.Dim, h.Cfg)
	if err := nn.LoadParams(r, n.Params()); err != nil {
		return nil, err
	}
	return n, nil
}

// partitionedHeader is the gob wire form of a Partitioned model's
// structure: configuration, cluster geometry and member vectors.
type partitionedHeader struct {
	Dim         int
	Dist        int
	Cfg         PartitionedConfig
	Method      int
	Clusters    []partition.Cluster
	Convert     bool
	AllActive   bool
	ClusterVecs [][][]float64
}

// Save writes the partitioned model — shared autoencoder, every local
// head, the partitioning geometry and the cluster member vectors — to w.
func (p *Partitioned) Save(w io.Writer) error {
	h := partitionedHeader{
		Dim:         p.dim,
		Dist:        int(p.dist),
		Cfg:         p.pcfg,
		Method:      int(p.part.Method),
		Clusters:    p.part.Clusters,
		ClusterVecs: p.clusterVecs,
	}
	h.Convert, h.AllActive = p.part.WireFlags()
	if err := gob.NewEncoder(w).Encode(h); err != nil {
		return fmt.Errorf("selnet: encode partitioned header: %w", err)
	}
	return nn.SaveParams(w, p.Params())
}

// LoadPartitioned reads a model written by (*Partitioned).Save.
func LoadPartitioned(r io.Reader) (*Partitioned, error) {
	if _, ok := r.(io.ByteReader); !ok {
		r = bufio.NewReader(r)
	}
	var h partitionedHeader
	if err := gob.NewDecoder(r).Decode(&h); err != nil {
		return nil, fmt.Errorf("selnet: decode partitioned header: %w", err)
	}
	rng := rand.New(rand.NewSource(0))
	ae := nn.NewAutoencoder(rng, h.Dim, h.Cfg.Model.AEHidden, h.Cfg.Model.AELatent)
	p := &Partitioned{
		pcfg:        h.Cfg,
		dim:         h.Dim,
		dist:        distance.Func(h.Dist),
		ae:          ae,
		part:        partition.Restore(partition.Method(h.Method), h.Clusters, h.Convert, h.AllActive),
		clusterVecs: h.ClusterVecs,
	}
	for range h.Clusters {
		p.locals = append(p.locals, NewNetWithAE(rng, h.Dim, h.Cfg.Model, ae))
	}
	if err := nn.LoadParams(r, p.Params()); err != nil {
		return nil, err
	}
	return p, nil
}

// SaveFile writes the model to path.
func (n *Net) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := n.Save(f); err != nil {
		return err
	}
	return f.Close()
}
