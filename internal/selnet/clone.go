package selnet

import (
	"bytes"
	"fmt"
	"math/rand"

	"selnet/internal/estimator"
)

// Clone returns a deep copy of the model: a freshly constructed network
// of the same architecture with the parameter values (including the
// autoencoder's) copied over. The clone shares nothing mutable with the
// original, so it can be retrained — the shadow-retraining step of the
// ingest pipeline — while the original keeps serving estimates.
func (n *Net) Clone() *Net {
	// The RNG only seeds initial weights, which the copy overwrites.
	c := NewNet(rand.New(rand.NewSource(0)), n.dim, n.cfg)
	src, dst := n.Params(), c.Params()
	for i := range src {
		dst[i].Value.CopyFrom(src[i].Value)
	}
	c.name = n.name
	return c
}

// Clone returns a deep copy of the partitioned model — shared
// autoencoder, local heads, partitioning geometry and cluster member
// vectors — via an in-memory Save/Load round trip, so the clone is
// exactly what a freshly loaded snapshot would be. Cluster bookkeeping
// (ApplyInsert/ApplyDelete) and retraining on the clone never touch the
// original.
func (p *Partitioned) Clone() (*Partitioned, error) {
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		return nil, fmt.Errorf("selnet: clone partitioned: %w", err)
	}
	c, err := LoadPartitioned(&buf)
	if err != nil {
		return nil, fmt.Errorf("selnet: clone partitioned: %w", err)
	}
	return c, nil
}

// CloneEstimator implements estimator.Cloner; it never fails.
func (n *Net) CloneEstimator() (estimator.Estimator, error) { return n.Clone(), nil }

// CloneEstimator implements estimator.Cloner, returning the round trip's
// error.
func (p *Partitioned) CloneEstimator() (estimator.Estimator, error) {
	c, err := p.Clone()
	if err != nil {
		return nil, err
	}
	return c, nil
}
