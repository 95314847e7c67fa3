package selnet

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"selnet/internal/nn"
	"selnet/internal/tensor"
)

// trainingGolden pins the FNV-64a digests of a fixed training run, keyed
// by {tensor.Optimized(), tensor.SIMDEnabled()}: the kernels are
// deterministic per build, but the reference, portable and SIMD GEMMs
// round differently. Builds without a recorded value skip.
var trainingGolden = map[[2]bool]struct{ net, part uint64 }{
	{true, true}:  {net: 0x5c701445d6bc1fa5, part: 0x303d9063c389d042},
	{false, true}: {net: 0x6a477c784cd346d2, part: 0x40879c67eef93c5f},
}

// hashParams folds every parameter value's bits into h.
func hashParams(h hash.Hash64, params []*nn.Param) {
	var b [8]byte
	for _, p := range params {
		for _, v := range p.Value.Data() {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
}

// hashUpdate folds an UpdateResult into h.
func hashUpdate(h hash.Hash64, r UpdateResult) {
	var b [8]byte
	var retrained uint64
	if r.Retrained {
		retrained = 1
	}
	for _, v := range []uint64{
		retrained,
		uint64(r.EpochsRun),
		math.Float64bits(r.MAEBefore),
		math.Float64bits(r.MAEAfter),
	} {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

// halfCopy copies the first half of vecs: a large insert that shifts
// every label far past δ_U.
func halfCopy(vecs [][]float64) [][]float64 {
	out := make([][]float64, len(vecs)/2)
	for i := range out {
		out[i] = append([]float64(nil), vecs[i]...)
	}
	return out
}

// netTrainingDigest runs Net.Fit, FitEpochsUntilNoImprovement and a
// retraining HandleUpdate on tiny fixed-seed inputs and digests the
// parameters after each stage plus the update's result.
func netTrainingDigest(t *testing.T) uint64 {
	db, wl := testWorkload(70, 200, 4, 12, 4)
	rng := rand.New(rand.NewSource(71))
	train, valid, _ := wl.Split(rng)
	n := NewNet(rng, db.Dim, tinyConfig(wl.TMax))
	tc := tinyTrainConfig()
	tc.Epochs, tc.EvalEvery, tc.AEPretrainEpochs, tc.Batch, tc.LR = 4, 2, 2, 16, 1e-2
	h := fnv.New64a()
	n.Fit(tc, db, train, valid)
	hashParams(h, n.Params())
	epochs := n.FitEpochsUntilNoImprovement(tc, train, valid, 2, 3)
	hashUpdate(h, UpdateResult{EpochsRun: epochs})
	hashParams(h, n.Params())
	db.Insert(halfCopy(db.Vecs)...)
	res := n.HandleUpdate(tc, UpdateConfig{DeltaU: -1, Patience: 2, MaxEpochs: 4}, db, train, valid)
	if !res.Retrained {
		t.Fatal("Net.HandleUpdate did not take the retrain branch")
	}
	hashUpdate(h, res)
	hashParams(h, n.Params())
	return h.Sum64()
}

// partTrainingDigest is netTrainingDigest for the partitioned model:
// Fit (with local pretraining) then a retraining HandleUpdate.
func partTrainingDigest(t *testing.T) uint64 {
	db, wl := testWorkload(72, 200, 4, 12, 4)
	rng := rand.New(rand.NewSource(73))
	train, valid, _ := wl.Split(rng)
	pcfg := tinyPartitionedConfig(wl.TMax)
	pcfg.PretrainEpochs = 2
	p := NewPartitioned(rng, db, pcfg)
	tc := tinyTrainConfig()
	tc.Epochs, tc.EvalEvery, tc.AEPretrainEpochs, tc.Batch, tc.LR = 4, 2, 2, 16, 1e-2
	h := fnv.New64a()
	p.Fit(tc, db, train, valid)
	hashParams(h, p.Params())
	ins := halfCopy(db.Vecs)
	db.Insert(ins...)
	p.ApplyInsert(ins)
	res := p.HandleUpdate(tc, UpdateConfig{DeltaU: -1, Patience: 2, MaxEpochs: 4}, db, train, valid)
	if !res.Retrained {
		t.Fatal("Partitioned.HandleUpdate did not take the retrain branch")
	}
	hashUpdate(h, res)
	hashParams(h, p.Params())
	return h.Sum64()
}

// TestTrainingDeterminismGolden pins training bit for bit: Fit, the
// patience loop and the δ_U retrain of both model types must produce
// exactly the recorded parameters and update results.
func TestTrainingDeterminismGolden(t *testing.T) {
	key := [2]bool{tensor.Optimized(), tensor.SIMDEnabled()}
	net, part := netTrainingDigest(t), partTrainingDigest(t)
	want, ok := trainingGolden[key]
	if !ok {
		t.Skipf("no golden recorded for optimized=%v simd=%v (net %#x, part %#x)", key[0], key[1], net, part)
	}
	if net != want.net || part != want.part {
		t.Fatalf("training digests net %#x part %#x, want net %#x part %#x", net, part, want.net, want.part)
	}
}
