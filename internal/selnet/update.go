package selnet

import (
	"math"
	"math/rand"

	"selnet/internal/nn"
	"selnet/internal/vecdata"
)

// UpdateConfig parameterizes the incremental-learning procedure of
// Sec. 5.4.
type UpdateConfig struct {
	// DeltaU is the MAE-change threshold δ_U: if the refreshed validation
	// MAE differs from the reference MAE by no more than this, the model
	// is left as-is.
	DeltaU float64
	// BaselineMAE, when positive, is the "original MAE" the paper compares
	// against — the validation MAE recorded when the model was last
	// (re)trained. This makes slow drift across many small updates
	// accumulate until it crosses δ_U. When zero, the comparison falls
	// back to the MAE immediately before the label refresh (per-operation
	// delta only).
	BaselineMAE float64
	// Patience is the number of consecutive non-improving epochs that stops
	// incremental training (paper: 3).
	Patience int
	// MaxEpochs bounds the incremental training loop.
	MaxEpochs int
}

// DefaultUpdateConfig mirrors the paper's procedure.
func DefaultUpdateConfig() UpdateConfig {
	return UpdateConfig{DeltaU: 1.0, Patience: 3, MaxEpochs: 30}
}

// UpdateResult reports what the update handler did.
type UpdateResult struct {
	// Retrained is false when the δ_U check decided the model was still
	// accurate enough.
	Retrained bool
	// EpochsRun counts incremental epochs (0 when not retrained).
	EpochsRun int
	// MAEBefore and MAEAfter are validation MAEs against the refreshed
	// labels, before and after incremental training.
	MAEBefore, MAEAfter float64
}

// HandleUpdate implements Sec. 5.4 for the single model (see
// handleUpdate). Retraining is FitEpochsUntilNoImprovement: one Adam
// carried across epochs and a shuffle seeded by tc.Seed+7.
func (n *Net) HandleUpdate(tc TrainConfig, uc UpdateConfig, db *vecdata.Database, train, valid []vecdata.Query) UpdateResult {
	return handleUpdate(n, uc, db, train, valid, func(float64) int {
		return n.FitEpochsUntilNoImprovement(tc, train, valid, uc.Patience, uc.MaxEpochs)
	})
}

// HandleUpdate implements Sec. 5.4 for the partitioned model (see
// handleUpdate). The caller must first register the physical change via
// ApplyInsert/ApplyDelete (so cluster-local labels stay correct) and
// apply it to db. Retraining continues the joint objective from the
// current parameters — "the training does not start from scratch" —
// without local re-pretraining; epoch e runs with a fresh Adam and a
// shuffle seeded by tc.Seed+e.
func (p *Partitioned) HandleUpdate(tc TrainConfig, uc UpdateConfig, db *vecdata.Database, train, valid []vecdata.Query) UpdateResult {
	return handleUpdate(p, uc, db, train, valid, func(mae float64) int {
		js := p.newJointSet(train)
		return untilNoImprovement(p, valid, mae, uc.Patience, uc.MaxEpochs, func(e int) {
			p.jointEpoch(tc, rand.New(rand.NewSource(tc.Seed+int64(e))), nn.NewAdam(tc.LR), js, identity(len(train)))
		})
	})
}

// handleUpdate is the Sec. 5.4 procedure shared by both model types. db
// must already reflect the update; train and valid are relabelled in
// place. It (1) refreshes the validation labels and re-tests MAE; (2)
// leaves the model as-is when the change from the reference MAE
// (uc.BaselineMAE, or else the MAE against the stale labels) is within
// δ_U; (3) otherwise refreshes the training labels too and calls retrain
// with the refreshed MAE, which continues training from the current
// parameters and returns the epochs it ran.
func handleUpdate(m trainable, uc UpdateConfig, db *vecdata.Database, train, valid []vecdata.Query, retrain func(mae float64) int) UpdateResult {
	m.DropPlans() // incremental training may mutate parameters
	ref := uc.BaselineMAE
	if !(ref > 0) {
		ref = m.MAE(valid) // MAE against stale labels
	}
	vecdata.Relabel(valid, db)
	newMAE := m.MAE(valid) // MAE against refreshed labels
	res := UpdateResult{MAEBefore: newMAE, MAEAfter: newMAE}
	if math.Abs(newMAE-ref) <= uc.DeltaU {
		return res
	}
	vecdata.Relabel(train, db)
	res.Retrained = true
	res.EpochsRun = retrain(newMAE)
	res.MAEAfter = m.MAE(valid)
	return res
}

// untilNoImprovement is the patience loop of Sec. 5.4: it runs epoch
// until the validation MAE fails to improve on bestMAE (by more than
// 1e-12) for patience consecutive epochs or maxEpochs have run, then
// restores the best parameters seen, the starting ones included. It
// returns the number of epochs run.
func untilNoImprovement(m trainable, valid []vecdata.Query, bestMAE float64, patience, maxEpochs int, epoch func(e int)) int {
	best := snapshotParams(m.Params())
	bad, epochs := 0, 0
	for epochs < maxEpochs {
		epoch(epochs)
		epochs++
		// The epoch mutated the parameters in place; the MAE below
		// compiles fresh plans, which pack the weights they see, so the
		// previous epoch's plans must go first.
		m.DropPlans()
		if mae := m.MAE(valid); mae < bestMAE-1e-12 {
			bestMAE, best, bad = mae, snapshotParams(m.Params()), 0
		} else if bad++; bad >= patience {
			break
		}
	}
	restoreParams(m.Params(), best)
	m.DropPlans() // the restore mutated parameters under compiled plans
	return epochs
}
