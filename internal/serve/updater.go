package serve

import "errors"

// The serving API exposes POST /v1/models/{name}/update, but the update
// pipeline itself (journaling, coalescing, shadow retraining) lives in
// internal/ingest, which builds on this package. The Updater interface
// is the seam between them: the server forwards update batches to
// whatever Updater it was given and maps the sentinel errors below onto
// HTTP statuses (429 for backpressure, 409 for a model that is served
// but not attached for updates).

// ErrUpdateQueueFull signals queue-depth backpressure: the model's
// pending-update journal is at capacity. The server answers 429 so
// clients know to retry later.
var ErrUpdateQueueFull = errors.New("serve: update queue full")

// ErrNotUpdatable signals that the named model is not attached to the
// update pipeline (no database/workload context to retrain against).
var ErrNotUpdatable = errors.New("serve: model not attached for updates")

// ErrUpdaterClosed signals that the update pipeline is draining for
// shutdown and no longer accepts batches. The server answers 503.
var ErrUpdaterClosed = errors.New("serve: update pipeline closed")

// ErrInvalidUpdate marks a malformed batch (e.g. a vector whose
// dimensionality does not match the attached database — the pipeline's
// database, not the registry model, is authoritative). Implementations
// wrap it with detail; the server answers 400.
var ErrInvalidUpdate = errors.New("serve: invalid update batch")

// UpdateAck acknowledges an accepted update batch.
type UpdateAck struct {
	// Seq is the journal sequence number assigned to the batch; estimates
	// reflect it once the pipeline's applied sequence reaches Seq and a
	// retrained shadow model has been swapped in.
	Seq uint64 `json:"seq"`
	// QueueDepth is the number of batches pending after this one.
	QueueDepth int `json:"queue_depth"`
}

// UpdaterStats is one model's ingest counters, surfaced in /stats and
// /metrics.
type UpdaterStats struct {
	// Mode is how the attached estimator absorbs data changes:
	// "retrain" (shadow clone + δ_U incremental training), "refresh"
	// (clone, rebind the updated database, rebuild derived state), or
	// "static" (database and journal only; the estimator is immutable).
	Mode string `json:"mode,omitempty"`
	// QueueDepth and QueueCapacity describe the pending-batch queue.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	// NextSeq is the last journal sequence assigned; AppliedSeq the last
	// one fully processed; Lag their difference.
	NextSeq    uint64 `json:"next_seq"`
	AppliedSeq uint64 `json:"applied_seq"`
	Lag        uint64 `json:"lag"`
	// BatchesApplied counts journal entries applied to the model's
	// database; InsertedVecs/DeletedVecs the vectors they carried.
	BatchesApplied uint64 `json:"batches_applied"`
	InsertedVecs   uint64 `json:"inserted_vecs"`
	DeletedVecs    uint64 `json:"deleted_vecs"`
	// Skipped counts retrain cycles absorbed by the δ_U check; Retrained
	// counts cycles that ran incremental training and hot-swapped;
	// Refreshed counts refresh-mode cycles that rebuilt and hot-swapped.
	Skipped   uint64 `json:"skipped"`
	Retrained uint64 `json:"retrained"`
	Refreshed uint64 `json:"refreshed,omitempty"`
	// LastMAEBefore/LastMAEAfter are the validation MAEs around the most
	// recent cycle (refreshed labels); LastEpochs its incremental epochs.
	LastMAEBefore float64 `json:"last_mae_before"`
	LastMAEAfter  float64 `json:"last_mae_after"`
	LastEpochs    int     `json:"last_epochs"`
	// SwapGeneration is the registry generation of the most recently
	// published shadow model (0 before the first swap).
	SwapGeneration uint64 `json:"swap_generation"`
	// Durable reports that the model's journal is backed by a write-ahead
	// log (-journal-dir); the fields below are zero otherwise.
	Durable bool `json:"durable,omitempty"`
	// JournaledBatches counts batches appended (and fsynced) to the WAL
	// since boot; ReplayedBatches is the number of recovered entries
	// queued for replay at boot.
	JournaledBatches uint64 `json:"journaled_batches,omitempty"`
	ReplayedBatches  uint64 `json:"replayed_batches,omitempty"`
	// JournalSyncs counts fsyncs the WAL performed; concurrent producers
	// group-commit, so under load it grows slower than JournaledBatches.
	JournalSyncs uint64 `json:"journal_syncs,omitempty"`
	// JournalBytes is the WAL's current size; SnapshotSeq the applied
	// sequence of the last durable snapshot; Compactions the number of
	// times the WAL dropped its applied prefix; JournalErrors failed
	// snapshot/compaction attempts.
	JournalBytes  int64  `json:"journal_bytes,omitempty"`
	SnapshotSeq   uint64 `json:"snapshot_seq,omitempty"`
	Compactions   uint64 `json:"compactions,omitempty"`
	JournalErrors uint64 `json:"journal_errors,omitempty"`
	// WorkloadDivergence is the live-versus-training workload divergence
	// from shift detection (0 without a workload monitor); Workload-
	// ShiftExceeded counts observations past the configured threshold,
	// and RetrainAdvised is the resulting retraining advice — the live-
	// telemetry complement to the δ_U data-drift trigger.
	WorkloadDivergence    float64 `json:"workload_divergence,omitempty"`
	WorkloadShiftExceeded uint64  `json:"workload_shift_exceeded,omitempty"`
	RetrainAdvised        bool    `json:"retrain_advised,omitempty"`
}

// Updater accepts insert/delete batches for served models. Implementations
// must be safe for concurrent use; internal/ingest provides the real one.
type Updater interface {
	// Enqueue journals one update batch for the named model, returning
	// ErrNotUpdatable for unattached models and ErrUpdateQueueFull under
	// backpressure.
	Enqueue(model string, insert, del [][]float64) (UpdateAck, error)
	// UpdaterStats snapshots per-model ingest counters.
	UpdaterStats() map[string]UpdaterStats
}
