// Package ingest is the streaming update-ingestion subsystem behind
// POST /v1/models/{name}/update: it journals insert/delete batches into
// per-model append-only logs, coalesces pending batches, and runs a
// background shadow-retrain worker per model that (1) applies the
// batches to the model's private database copy, (2) runs the paper's
// Sec. 5.4 incremental-update procedure — the δ_U accuracy check and, if
// it fires, incremental training — on a shadow clone of the model, off
// the serving path, and (3) atomically hot-swaps the retrained shadow
// into the serve.Registry, bumping the model's generation so the
// estimate cache self-invalidates.
//
// Serving is never blocked or perturbed: published models are immutable,
// the shadow is private to the worker until the swap, and a swap is one
// copy-on-write registry publish. Backpressure is by journal depth
// (serve.ErrUpdateQueueFull -> HTTP 429), and Close drains every journal
// before returning, so acknowledged batches are never dropped on
// shutdown.
//
// With JournalConfig.Dir set, the journal is also crash-durable: every
// batch is appended to a per-model write-ahead log (wal.go) and fsynced
// before it is acknowledged, a background snapshotter persists the
// database and model so the log stays bounded (snapshot.go), and Attach
// replays the surviving tail on boot — acknowledged batches survive a
// SIGKILL, not just a graceful drain.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"selnet/internal/estimator"
	"selnet/internal/obs"
	"selnet/internal/selnet"
	"selnet/internal/serve"
	"selnet/internal/vecdata"
)

// Updatable is the full-retrain surface of a model: a cloneable
// servable estimator plus the Sec. 5.4 update procedure. *selnet.Net and
// *selnet.Partitioned both satisfy it. It is the one capability declared
// outside package estimator: HandleUpdate names selnet's configuration
// types, and selnet imports package estimator.
type Updatable interface {
	estimator.Estimator
	estimator.Cloner
	HandleUpdate(tc selnet.TrainConfig, uc selnet.UpdateConfig, db *vecdata.Database,
		train, valid []vecdata.Query) selnet.UpdateResult
	MAE(queries []vecdata.Query) float64
}

// updateMode is how an attached estimator absorbs data changes; Attach
// picks the strongest capability the estimator offers and degrades
// gracefully from there.
type updateMode int

const (
	// modeRetrain: shadow clone + δ_U check + incremental training.
	modeRetrain updateMode = iota
	// modeRefresh: clone + rebind updated database + rebuild.
	modeRefresh
	// modeStatic: database apply and journaling only; the published
	// estimator never changes. Updates still matter — the database is
	// the recovery base and the shadow oracle's ground truth.
	modeStatic
)

func (m updateMode) String() string {
	switch m {
	case modeRetrain:
		return "retrain"
	case modeRefresh:
		return "refresh"
	default:
		return "static"
	}
}

// Config assembles a Pipeline.
type Config struct {
	// Registry receives retrained shadow models via hot-swap publishes.
	Registry *serve.Registry
	// QueueDepth bounds each model's pending-batch journal; appends
	// beyond it fail with serve.ErrUpdateQueueFull (default 64).
	QueueDepth int
	// RetrainWorkers caps concurrent shadow retrains across all models
	// (default 1): journaling and database application stay parallel, but
	// training is CPU-heavy and serving shares the machine.
	RetrainWorkers int
	// Train parameterizes incremental training; Update is the Sec. 5.4
	// procedure (δ_U, patience, epoch cap). The per-model baseline MAE is
	// managed by the pipeline and overrides Update.BaselineMAE.
	Train  selnet.TrainConfig
	Update selnet.UpdateConfig
	// OnCycle, if set, observes every completed apply+retrain cycle
	// (logging, tests). Called from the model's worker goroutine.
	OnCycle func(model string, c Cycle)
	// BeforeRetrain, if set, runs after a cycle's batches are coalesced
	// and applied to the private database but before the shadow clone and
	// δ_U check. Tests use it to freeze the pipeline at the point where
	// serving must still be answering from the old model.
	BeforeRetrain func(model string)
	// Shadow, if set, gets a per-model ground-truth oracle (a DBOracle
	// over the model's private database) registered at Attach, so live
	// requests sampled by the serving tap can be scored against the
	// exact data the model serves. Mutating cycles coordinate with the
	// oracle through its write lock.
	Shadow *obs.Shadow
	// Oracle tunes the shadow oracle; a zero Budget takes the default
	// (2000).
	Oracle OracleConfig
	// Workload, if set, receives a baseline snapshot of each model's
	// training workload at Attach, against which the live query stream
	// is compared for shift detection; the resulting divergence is
	// surfaced as retraining advice in UpdaterStats.
	Workload *obs.WorkloadMonitor
	// Drift, if set, receives an online accuracy audit after every
	// cycle: a holdout of the model's freshly relabelled validation
	// queries is scored against the *serving* estimator — the answers
	// clients are getting right now versus current ground truth — and
	// fed into the monitor's rolling q-error window. Runs on the
	// model's worker goroutine, off the serving path.
	Drift *obs.DriftMonitor
	// Journal configures the durable write-ahead log; the zero value
	// keeps the journal in memory only (the pre-WAL behavior).
	Journal JournalConfig
}

// JournalConfig enables crash-durable journaling when Dir is non-empty:
// each model's accepted batches are appended to <dir>/<name>.wal and
// fsynced (group-committed across concurrent producers) before Enqueue
// acknowledges, so a batch answered 202 survives a SIGKILL. Attach then
// recovers on boot — snapshot load, tail replay through the normal
// apply+retrain pipeline — and a background snapshotter persists the
// model's private database and weights so the log's applied prefix can
// be compacted away.
type JournalConfig struct {
	// Dir is the journal directory; empty disables durability.
	Dir string
	// SnapshotEvery is the number of applied batches between snapshots
	// (default 64). Each snapshot persists the database and current model
	// and lets the WAL drop everything it covers.
	SnapshotEvery int
	// CompactBytes forces a snapshot+compaction once a model's WAL
	// exceeds this size regardless of batch count (default 4 MiB).
	CompactBytes int64
	// OnRecover, if set, observes each model's boot-time recovery.
	OnRecover func(model string, r Recovery)
}

// DefaultConfig returns the pipeline settings selestd starts from: the
// defaults that zero fields of a Config take in New, plus the paper's
// Sec. 5.4 update procedure.
func DefaultConfig() Config {
	return Config{
		QueueDepth:     64,
		RetrainWorkers: 1,
		Update:         selnet.DefaultUpdateConfig(),
		Oracle:         OracleConfig{Budget: 2000},
		Journal:        JournalConfig{SnapshotEvery: 64, CompactBytes: 4 << 20},
	}
}

// A cycle fuses at most coalesceMax journaled batches, and its drift
// audit scores at most driftSample holdout queries.
const (
	coalesceMax = 8
	driftSample = 32
)

// Recovery reports what Attach restored from the journal directory.
type Recovery struct {
	// SnapshotSeq is the applied sequence of the snapshot the database
	// was restored from (0 when no snapshot existed and the database is
	// the operator-supplied one).
	SnapshotSeq uint64
	// RestoredModel reports that the snapshot also carried model weights,
	// which were published to the registry in place of the caller's model.
	RestoredModel bool
	// Replayed is the number of surviving log entries queued for replay
	// through the apply+retrain pipeline.
	Replayed int
	// DiscardedBytes counts truncated/corrupt WAL tail bytes dropped.
	DiscardedBytes int64
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.QueueDepth <= 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.RetrainWorkers <= 0 {
		c.RetrainWorkers = d.RetrainWorkers
	}
	if c.Journal.SnapshotEvery <= 0 {
		c.Journal.SnapshotEvery = d.Journal.SnapshotEvery
	}
	if c.Journal.CompactBytes <= 0 {
		c.Journal.CompactBytes = d.Journal.CompactBytes
	}
	return c
}

// Cycle reports one coalesced apply+retrain cycle.
type Cycle struct {
	// FirstSeq..LastSeq are the journal sequences fused into the cycle.
	FirstSeq, LastSeq uint64
	// Batches is the number of journal entries coalesced; Inserted and
	// Deleted count vectors actually applied to the database (deletes of
	// absent vectors do not count).
	Batches, Inserted, Deleted int
	// Result is the Sec. 5.4 outcome on the shadow model.
	Result selnet.UpdateResult
	// Swapped reports whether the shadow was published; Generation is its
	// registry generation when it was.
	Swapped    bool
	Generation uint64
	// Adopted reports that an externally hot-swapped model (a manual
	// POST /v1/models/{name}) was taken over as the new shadow base.
	Adopted bool
	// Err is set when the cycle failed before the δ_U check (e.g. the
	// model could not be cloned); the batches still count as applied.
	Err error

	Duration time.Duration
}

// Pipeline fans journaled update batches into per-model shadow-retrain
// workers. All methods are safe for concurrent use.
type Pipeline struct {
	cfg Config
	sem chan struct{} // retrain permits

	// snapCh feeds the background snapshotter; snapWG tracks it. Both are
	// nil without a journal directory. snapBusy is set while a snapshot
	// is queued or being written so workers skip the (O(|D|)) clone they
	// would otherwise throw away.
	snapCh   chan snapshotRequest
	snapWG   sync.WaitGroup
	snapBusy atomic.Bool

	mu     sync.Mutex
	models map[string]*modelPipeline
	closed bool
	wg     sync.WaitGroup
}

// snapshotRequest carries one model's cloned recovery base to the
// snapshotter goroutine.
type snapshotRequest struct {
	mp   *modelPipeline
	snap modelSnapshot
}

// modelPipeline is one model's ingest state. Everything below the
// journal is owned by the worker goroutine; stats are the only shared
// state and sit behind their own mutex.
type modelPipeline struct {
	name  string
	mode  updateMode
	j     *journal
	db    *vecdata.Database
	train []vecdata.Query
	valid []vecdata.Query
	cur   estimator.Estimator
	// published is the estimator this pipeline last installed in (or
	// attached to) the registry; when the registry holds something else,
	// an operator hot-swapped a model manually and the pipeline adopts it
	// as the new shadow base instead of clobbering it.
	published estimator.Estimator
	// baseline is the reference MAE of the δ_U trigger: the validation
	// MAE recorded when the model was last (re)trained, so drift
	// accumulates across skipped updates (Sec. 5.4).
	baseline float64
	// wal is the model's durable log (nil without a journal directory);
	// sinceSnap counts applied batches since the last snapshot request
	// and is worker-owned.
	wal       *WAL
	sinceSnap int
	// driftOff rotates the drift holdout through the validation set so
	// consecutive cycles score different queries (worker-owned).
	driftOff int
	// oracle is the model's shadow ground-truth oracle (nil without
	// Config.Shadow); cycles bracket database mutations with its write
	// lock so concurrent ground-truth scans see batch-atomic state.
	oracle *DBOracle

	statsMu sync.Mutex
	stats   serve.UpdaterStats
}

// New builds a pipeline; cfg.Registry must be set.
func New(cfg Config) *Pipeline {
	if cfg.Registry == nil {
		panic("ingest: Config.Registry must be set")
	}
	cfg = cfg.withDefaults()
	p := &Pipeline{
		cfg:    cfg,
		sem:    make(chan struct{}, cfg.RetrainWorkers),
		models: make(map[string]*modelPipeline),
	}
	if cfg.Journal.Dir != "" {
		// Capacity 1 with drop-if-busy send: a snapshot in progress never
		// blocks a worker, it just defers compaction to a later cycle.
		p.snapCh = make(chan snapshotRequest, 1)
		p.snapWG.Add(1)
		go p.snapshotter()
	}
	return p
}

// Attach registers a model for streaming updates. db is the model's
// private database copy (the pipeline owns it afterwards); train and
// valid are labelled query sets whose labels are current against db —
// they are relabelled in place as updates arrive. The model must be
// published in the registry under the same name before updates arrive:
// retrained shadows are installed with a compare-and-swap against this
// pipeline's last publish, so with no registry entry (or after a manual
// Remove) they are deliberately not published. Attach starts the
// model's worker goroutine.
//
// With a journal directory configured, Attach first recovers: the
// caller's db is replaced by the latest durable snapshot when one
// exists (and the snapshot's model weights, if present, are published
// to the registry, superseding the caller's model), the WAL's corrupt
// tail is discarded, and every surviving record past the snapshot's
// applied sequence is queued for replay through the normal
// apply+retrain pipeline — so the δ_U loop resumes exactly where the
// previous process left off and every acknowledged batch takes effect.
func (p *Pipeline) Attach(name string, m estimator.Estimator, db *vecdata.Database, train, valid []vecdata.Query) error {
	if name == "" {
		return fmt.Errorf("ingest: empty model name")
	}
	if m == nil || db == nil {
		return fmt.Errorf("ingest: nil model or database for %q", name)
	}
	if m.Dim() != db.Dim {
		return fmt.Errorf("ingest: model %q has dim %d but database has dim %d", name, m.Dim(), db.Dim)
	}
	mode := modeOf(m)
	if mode == modeRetrain && len(valid) == 0 {
		return fmt.Errorf("ingest: model %q needs validation queries for the delta_U check", name)
	}

	// Fail the cheap structural checks before recovery: recover publishes
	// the snapshot model to the live registry, which must not happen for
	// an Attach that is going to be rejected. (A concurrent duplicate
	// Attach is still caught by the authoritative re-check below.)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return serve.ErrUpdaterClosed
	}
	if _, dup := p.models[name]; dup {
		p.mu.Unlock()
		return fmt.Errorf("ingest: model %q already attached", name)
	}
	p.mu.Unlock()

	mp := &modelPipeline{
		name:  name,
		mode:  mode,
		db:    db,
		train: train,
		valid: valid,
		cur:   m,
	}
	if p.cfg.Journal.Dir != "" {
		if err := p.recover(mp); err != nil {
			return err
		}
		// Recovery may have swapped in a snapshot model of a different
		// capability class; re-derive the mode from what will serve.
		mp.mode = modeOf(mp.cur)
	}
	if mp.j == nil {
		mp.j = newJournal(p.cfg.QueueDepth, memStore{})
	}
	mp.published = mp.cur
	if mp.mode == modeRetrain {
		mp.baseline = mp.cur.(Updatable).MAE(mp.valid)
	}
	mp.stats.QueueCapacity = p.cfg.QueueDepth
	mp.stats.Mode = mp.mode.String()

	// Observability hookup: the shadow scorer gets a ground-truth oracle
	// over the (possibly just-recovered) private database, and the
	// workload monitor a baseline snapshot of the training workload.
	if p.cfg.Shadow != nil {
		mp.oracle = NewDBOracle(mp.db, p.cfg.Oracle)
		p.cfg.Shadow.SetOracle(name, mp.oracle)
	}
	if p.cfg.Workload != nil {
		qs := make([][]float64, 0, len(mp.train)+len(mp.valid))
		ts := make([]float64, 0, len(mp.train)+len(mp.valid))
		for _, set := range [][]vecdata.Query{mp.train, mp.valid} {
			for _, q := range set {
				qs = append(qs, q.X)
				ts = append(ts, q.T)
			}
		}
		p.cfg.Workload.SetBaseline(name, qs, ts)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		if mp.wal != nil {
			mp.wal.Close()
		}
		return serve.ErrUpdaterClosed
	}
	if _, dup := p.models[name]; dup {
		if mp.wal != nil {
			mp.wal.Close()
		}
		return fmt.Errorf("ingest: model %q already attached", name)
	}
	p.models[name] = mp
	p.wg.Add(1)
	go p.worker(mp)
	return nil
}

// recover restores mp's durable state from the journal directory: the
// snapshot becomes the database (and, when it carries weights, the
// model — published to the registry so serving resumes from the exact
// pre-crash state), and the WAL's surviving entries are seeded into the
// journal for replay. Labels are recomputed against the recovered
// database so the δ_U baseline is sound.
func (p *Pipeline) recover(mp *modelPipeline) error {
	cfg := p.cfg.Journal
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("ingest: journal dir: %w", err)
	}

	var rec Recovery
	snap, haveSnap, err := loadSnapshot(snapshotPath(cfg.Dir, mp.name), mp.name)
	if err != nil {
		return err
	}
	if haveSnap {
		if snap.db.Dim != mp.db.Dim {
			return fmt.Errorf("ingest: snapshot for %q has dim %d but database has dim %d",
				mp.name, snap.db.Dim, mp.db.Dim)
		}
		if snap.model != nil && snap.model.Dim() != mp.db.Dim {
			return fmt.Errorf("ingest: snapshot model for %q has dim %d but database has dim %d",
				mp.name, snap.model.Dim(), mp.db.Dim)
		}
		rec.SnapshotSeq = snap.appliedSeq
	}

	w, walRec, err := OpenWAL(walPath(cfg.Dir, mp.name), mp.name)
	if err != nil {
		return err
	}
	if walRec.BaseApplied > rec.SnapshotSeq {
		// The log was compacted past what any surviving snapshot covers:
		// the dropped prefix is unrecoverable and silently resuming would
		// serve a database missing acknowledged batches.
		w.Close()
		return fmt.Errorf("ingest: journal for %q compacted to seq %d but no snapshot covers it (snapshot seq %d)",
			mp.name, walRec.BaseApplied, rec.SnapshotSeq)
	}

	// Everything that can fail has; adopting the snapshot — including
	// the registry publish, which mutates live serving state — is safe
	// now.
	if haveSnap {
		snap.db.Name = mp.db.Name
		mp.db = snap.db
		if snap.model != nil {
			mp.cur = snap.model
			if _, err := p.cfg.Registry.Publish(mp.name, snap.model,
				fmt.Sprintf("journal: snapshot seq %d", snap.appliedSeq)); err != nil {
				w.Close()
				return err
			}
			rec.RestoredModel = true
		}
		// The caller labelled train/valid against its own database; the
		// snapshot supersedes it, so recompute.
		vecdata.Relabel(mp.train, mp.db)
		vecdata.Relabel(mp.valid, mp.db)
	}
	mp.wal = w
	mp.j = newJournal(p.cfg.QueueDepth, w)
	rec.Replayed = mp.j.restore(rec.SnapshotSeq, walRec.Entries)
	rec.DiscardedBytes = walRec.DiscardedBytes

	mp.stats.Durable = true
	mp.stats.ReplayedBatches = uint64(rec.Replayed)
	mp.stats.SnapshotSeq = rec.SnapshotSeq
	if cfg.OnRecover != nil {
		cfg.OnRecover(mp.name, rec)
	}
	return nil
}

// Enqueue journals one insert/delete batch for the named model. It
// implements serve.Updater, so the HTTP server forwards
// POST /v1/models/{name}/update here.
func (p *Pipeline) Enqueue(model string, insert, del [][]float64) (serve.UpdateAck, error) {
	mp := p.lookup(model)
	if mp == nil {
		return serve.UpdateAck{}, serve.ErrNotUpdatable
	}
	if err := mp.checkDims(insert, del); err != nil {
		return serve.UpdateAck{}, err
	}
	e, depth, err := mp.j.append(insert, del)
	if err != nil {
		return serve.UpdateAck{}, err
	}
	return serve.UpdateAck{Seq: e.Seq, QueueDepth: depth}, nil
}

// Replicate journals a chunk of leader-assigned entries for the named
// model, the follower half of WAL streaming replication: entries are
// appended at their original sequence numbers (skipping any the local
// journal already holds, so re-pulled ranges replay idempotently),
// fsynced once as a group, and then flow through the same worker
// apply+retrain path as local updates. It returns how many entries were
// newly journaled; a queue-full stop after a partial chunk is not an
// error — the caller re-pulls from its new position once the worker
// drains.
func (p *Pipeline) Replicate(model string, entries []Entry) (accepted int, err error) {
	mp := p.lookup(model)
	if mp == nil {
		return 0, serve.ErrNotUpdatable
	}
	for _, e := range entries {
		if err := mp.checkDims(e.Insert, e.Delete); err != nil {
			return 0, fmt.Errorf("replicated seq %d: %w", e.Seq, err)
		}
	}
	for _, e := range entries {
		ok, aerr := mp.j.appendAt(e)
		if aerr != nil {
			if errors.Is(aerr, serve.ErrUpdateQueueFull) && accepted > 0 {
				break
			}
			if accepted > 0 {
				if serr := mp.j.sync(); serr != nil {
					return accepted, serr
				}
			}
			return accepted, aerr
		}
		if ok {
			accepted++
		}
	}
	if accepted > 0 {
		if serr := mp.j.sync(); serr != nil {
			return accepted, serr
		}
	}
	return accepted, nil
}

// checkDims rejects a batch holding a vector whose width is not the
// model's, with an error wrapping serve.ErrInvalidUpdate.
func (mp *modelPipeline) checkDims(insert, del [][]float64) error {
	for k, set := range [2][][]float64{insert, del} {
		for i, v := range set {
			if len(v) != mp.db.Dim {
				return fmt.Errorf("%w: %s %d has dim %d, model %q expects %d",
					serve.ErrInvalidUpdate, [2]string{"insert", "delete"}[k], i, len(v), mp.name, mp.db.Dim)
			}
		}
	}
	return nil
}

// TailWAL opens a streaming reader over the named model's write-ahead
// log resuming after the given sequence, for serving replication pulls.
// It fails for models without a durable journal and with ErrWALCompacted
// when the log no longer reaches back to the requested position.
func (p *Pipeline) TailWAL(model string, after uint64) (*WALTailer, error) {
	mp := p.lookup(model)
	if mp == nil {
		return nil, serve.ErrNotUpdatable
	}
	if mp.wal == nil {
		return nil, fmt.Errorf("ingest: model %q has no durable journal to stream", model)
	}
	return TailWAL(mp.wal.path, after)
}

// Position reports the named model's journal position: the last assigned
// (journaled) sequence and the last applied one.
func (p *Pipeline) Position(model string) (lastSeq, applied uint64, ok bool) {
	mp := p.lookup(model)
	if mp == nil {
		return 0, 0, false
	}
	lastSeq, applied, _ = mp.j.snapshot()
	return lastSeq, applied, true
}

// WaitApplied blocks until the named model's applied sequence reaches
// seq (i.e. the batch has been applied and its retrain cycle decided).
// It returns false for unknown models or when the pipeline closes with
// seq unreachable.
func (p *Pipeline) WaitApplied(model string, seq uint64) bool {
	mp := p.lookup(model)
	if mp == nil {
		return false
	}
	return mp.j.waitApplied(seq)
}

// UpdaterStats implements serve.Updater: a snapshot of every attached
// model's ingest counters.
func (p *Pipeline) UpdaterStats() map[string]serve.UpdaterStats {
	p.mu.Lock()
	models := make([]*modelPipeline, 0, len(p.models))
	for _, mp := range p.models {
		models = append(models, mp)
	}
	p.mu.Unlock()

	out := make(map[string]serve.UpdaterStats, len(models))
	for _, mp := range models {
		lastSeq, applied, depth := mp.j.snapshot()
		mp.statsMu.Lock()
		s := mp.stats
		mp.statsMu.Unlock()
		s.NextSeq = lastSeq
		s.AppliedSeq = applied
		s.Lag = lastSeq - applied
		s.QueueDepth = depth
		if mp.wal != nil {
			ws := mp.wal.Stats()
			s.JournaledBatches = ws.Appends
			s.JournalBytes = ws.Size
			s.JournalSyncs = ws.Syncs
			s.Compactions = ws.Compactions
		}
		if p.cfg.Workload != nil {
			if ws, ok := p.cfg.Workload.ModelStats(mp.name); ok {
				s.WorkloadDivergence = ws.Divergence
				s.WorkloadShiftExceeded = ws.Exceeded
				s.RetrainAdvised = ws.ShiftAdvised
			}
		}
		out[mp.name] = s
	}
	return out
}

// Close stops accepting batches and drains: every journaled entry is
// still applied (and retrained if δ_U fires) before Close returns — the
// drain-on-shutdown guarantee. With a journal directory, pending
// snapshots finish and the WALs are fsynced and closed, so the next
// boot replays only what the drain could not absorb. Idempotent.
func (p *Pipeline) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		p.snapWG.Wait()
		return
	}
	p.closed = true
	models := make([]*modelPipeline, 0, len(p.models))
	for _, mp := range p.models {
		models = append(models, mp)
	}
	p.mu.Unlock()
	for _, mp := range models {
		mp.j.close()
	}
	p.wg.Wait()
	if p.snapCh != nil {
		close(p.snapCh)
		p.snapWG.Wait()
	}
	for _, mp := range models {
		if mp.wal != nil {
			mp.wal.Close()
		}
	}
}

func (p *Pipeline) lookup(model string) *modelPipeline {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.models[model]
}

// worker drains one model's journal until close, one coalesced cycle at
// a time.
func (p *Pipeline) worker(mp *modelPipeline) {
	defer p.wg.Done()
	for {
		entries := mp.j.claim(coalesceMax)
		if len(entries) == 0 {
			return
		}
		c := p.cycle(mp, entries)
		mp.j.markApplied(c.LastSeq, c.Batches)
		p.maybeSnapshot(mp, c)
		p.scoreDrift(mp, c)
		if p.cfg.OnCycle != nil {
			p.cfg.OnCycle(mp.name, c)
		}
	}
}

// maybeSnapshot hands the snapshotter a cloned recovery base once enough
// batches (or WAL bytes) have accumulated since the last one. The clone
// happens here, on the worker goroutine that owns db and cur, so the
// snapshot is a consistent view at exactly the applied sequence. The
// snapshot write — the expensive part, O(database + model) — happens off
// the ingest path; the WAL compaction that follows briefly stalls update
// acks (they group-commit behind it), bounded by the WAL size cap.
func (p *Pipeline) maybeSnapshot(mp *modelPipeline, c Cycle) {
	if mp.wal == nil {
		return
	}
	mp.sinceSnap += c.Batches
	if mp.sinceSnap < p.cfg.Journal.SnapshotEvery && mp.wal.sizeBytes() < p.cfg.Journal.CompactBytes {
		return
	}
	// Claim the snapshotter before cloning: the clones are O(database),
	// too expensive to produce on the apply path just to throw away when
	// a snapshot is already in flight. The counter keeps accumulating so
	// a later cycle retries.
	if !p.snapBusy.CompareAndSwap(false, true) {
		return
	}
	// Static estimators are immutable — no mutation path ever touches
	// them — so the snapshotter can serialize the live value; the other
	// modes clone so the worker's next cycle never races the write.
	model := mp.cur
	if mp.mode != modeStatic {
		var err error
		model, err = mp.cur.(estimator.Cloner).CloneEstimator()
		if err != nil {
			// Skip this snapshot rather than wedge the worker; the
			// counter keeps accumulating, so a later cycle retries.
			p.snapBusy.Store(false)
			return
		}
	}
	p.snapCh <- snapshotRequest{
		mp:   mp,
		snap: modelSnapshot{appliedSeq: c.LastSeq, db: mp.db.Clone(), model: model},
	}
	mp.sinceSnap = 0
}

// scoreDrift audits the serving model after a cycle: it estimates a
// rotating holdout of mp.valid — whose labels the cycle's HandleUpdate
// just recomputed against the updated database — with the estimator the
// registry is actually serving (not the fresh shadow), and feeds the
// q-errors to the drift monitor. A cycle whose retrain was skipped by
// δ_U but whose data moved shows up here as a rising quantile.
func (p *Pipeline) scoreDrift(mp *modelPipeline, c Cycle) {
	if p.cfg.Drift == nil || c.Err != nil || len(mp.valid) == 0 {
		return
	}
	est := mp.cur
	if m, ok := p.cfg.Registry.Get(mp.name); ok {
		est = m.Est
	}
	n := driftSample
	if n > len(mp.valid) {
		n = len(mp.valid)
	}
	pred := make([]float64, n)
	label := make([]float64, n)
	for i := 0; i < n; i++ {
		q := mp.valid[(mp.driftOff+i)%len(mp.valid)]
		pred[i] = est.Estimate(q.X, q.T)
		label[i] = q.Y
	}
	mp.driftOff = (mp.driftOff + n) % len(mp.valid)
	p.cfg.Drift.Observe(mp.name, pred, label)
}

// snapshotter serializes snapshot writes and WAL compactions for every
// model in the pipeline.
func (p *Pipeline) snapshotter() {
	defer p.snapWG.Done()
	dir := p.cfg.Journal.Dir
	for req := range p.snapCh {
		mp := req.mp
		err := writeSnapshot(snapshotPath(dir, mp.name), mp.name, req.snap)
		if err == nil {
			err = mp.wal.Compact(req.snap.appliedSeq)
		}
		mp.statsMu.Lock()
		if err != nil {
			mp.stats.JournalErrors++
		} else {
			mp.stats.SnapshotSeq = req.snap.appliedSeq
		}
		mp.statsMu.Unlock()
		p.snapBusy.Store(false)
	}
}

// cycle runs one coalesced apply + shadow-retrain + swap pass. The
// database and query labels mutate first (they are pipeline-private);
// the serving model only changes at the final registry publish. Every
// outcome, a failed one included, leaves through the deferred exit
// that times the cycle and folds it into the stats.
func (p *Pipeline) cycle(mp *modelPipeline, entries []Entry) (c Cycle) {
	start := time.Now()
	c = Cycle{FirstSeq: entries[0].Seq, LastSeq: entries[len(entries)-1].Seq, Batches: len(entries)}
	defer func() {
		c.Duration = time.Since(start)
		p.recordCycle(mp, c)
	}()
	// Entries apply in journal order (a delete only matches vectors
	// present at its position in the stream). Deletions are resolved
	// through a value index built at most once per cycle and maintained
	// across the coalesced entries, then compacted out of the database in
	// a single Delete pass.
	var inserted, deleted [][]float64
	var index *valueIndex
	var drop []int
	// With a shadow oracle attached, the mutation is bracketed by its
	// write lock so concurrent ground-truth scans never observe a
	// half-applied batch.
	if mp.oracle != nil {
		mp.oracle.BeginMutate()
	}
	for _, e := range entries {
		if len(e.Insert) > 0 {
			base := mp.db.Size()
			mp.db.Insert(e.Insert...)
			if index != nil {
				index.add(base, e.Insert)
			}
			inserted = append(inserted, e.Insert...)
		}
		for _, v := range e.Delete {
			if index == nil {
				index = newValueIndex(mp.db)
			}
			if i, ok := index.remove(v); ok {
				drop = append(drop, i)
				deleted = append(deleted, v)
			}
		}
	}
	mp.db.Delete(drop...)
	if mp.oracle != nil {
		mp.oracle.EndMutate()
	}
	c.Inserted, c.Deleted = len(inserted), len(deleted)

	if p.cfg.BeforeRetrain != nil {
		p.cfg.BeforeRetrain(mp.name)
	}

	// A static estimator is done: the database and journal carry the
	// update; the published model is immutable by construction.
	if mp.mode == modeStatic {
		return c
	}

	// Shadow step under the retrain semaphore: adopt a manual swap,
	// clone, and run the mode's rebuild.
	p.sem <- struct{}{}
	p.adoptManualSwap(mp, &c)
	shadow, publish, err := p.rebuild(mp, &c, inserted, deleted)
	<-p.sem
	if err != nil {
		c.Err = err
		return c
	}

	// The shadow carries the authoritative state (cluster membership,
	// ball radii, the rebound database) even when δ_U absorbed the
	// change, so it always becomes the next cycle's base.
	mp.cur = shadow
	if !publish {
		return c
	}
	source := fmt.Sprintf("ingest: seq %d-%d", c.FirstSeq, c.LastSeq)
	if mp.mode == modeRefresh {
		source = fmt.Sprintf("ingest: refresh seq %d-%d", c.FirstSeq, c.LastSeq)
	}
	// Conditional on the registry still holding what this pipeline last
	// published: if a manual load slipped in while the shadow was being
	// rebuilt, the swap is abandoned and the next cycle adopts the
	// operator's model instead.
	m, swapped, err := p.cfg.Registry.PublishIf(mp.name, shadow, source, mp.published)
	switch {
	case err != nil:
		c.Err = err
	case swapped:
		c.Swapped = true
		c.Generation = m.Generation
		mp.published = shadow
		// The δ_U baseline restarts at the published model's MAE (zero,
		// and unused, in refresh mode).
		mp.baseline = c.Result.MAEAfter
	}
	return c
}

// rebuild clones the shadow base and runs the mode's update step on the
// clone, reporting whether the result is to be published. Refresh mode
// rebinds the clone to a copy of the updated database and rebuilds it,
// and always publishes. Retrain mode registers the structural change
// and runs the Sec. 5.4 δ_U check + incremental training into
// c.Result, and publishes only when it retrained.
func (p *Pipeline) rebuild(mp *modelPipeline, c *Cycle, inserted, deleted [][]float64) (estimator.Estimator, bool, error) {
	shadow, err := mp.cur.(estimator.Cloner).CloneEstimator()
	if err != nil {
		return nil, false, err
	}
	if mp.mode == modeRefresh {
		r := shadow.(estimator.Refresher)
		// The clone gets its own copy of the updated database so later
		// worker cycles never mutate what it serves from.
		if err := r.BindDB(mp.db.Clone()); err != nil {
			return nil, false, err
		}
		r.Refresh()
		return shadow, true, nil
	}
	if ba, ok := shadow.(estimator.BulkApplier); ok {
		if len(inserted) > 0 {
			ba.ApplyInsert(inserted)
		}
		if len(deleted) > 0 {
			ba.ApplyDelete(deleted)
		}
	}
	uc := p.cfg.Update
	uc.BaselineMAE = mp.baseline
	c.Result = shadow.(Updatable).HandleUpdate(p.cfg.Train, uc, mp.db, mp.train, mp.valid)
	return shadow, c.Result.Retrained, nil
}

// adoptManualSwap takes over an operator's manually loaded model as the
// new shadow base when it is compatible with this pipeline's mode — so
// the next publish never silently reverts a manual POST /v1/models.
// Validation labels are still pre-update here, so an adopted retrain
// baseline reflects the data the model was loaded against, exactly like
// the baseline recorded at Attach.
func (p *Pipeline) adoptManualSwap(mp *modelPipeline, c *Cycle) {
	pub, ok := p.cfg.Registry.Get(mp.name)
	if !ok || pub.Est == mp.published || pub.Est.Dim() != mp.db.Dim {
		return
	}
	if modeOf(pub.Est) != mp.mode {
		return
	}
	mp.cur, mp.published = pub.Est, pub.Est
	if mp.mode == modeRetrain {
		mp.baseline = pub.Est.(Updatable).MAE(mp.valid)
	}
	c.Adopted = true
}

// recordCycle folds a cycle into the model's stats.
func (p *Pipeline) recordCycle(mp *modelPipeline, c Cycle) {
	mp.statsMu.Lock()
	defer mp.statsMu.Unlock()
	s := &mp.stats
	s.BatchesApplied += uint64(c.Batches)
	s.InsertedVecs += uint64(c.Inserted)
	s.DeletedVecs += uint64(c.Deleted)
	if c.Err == nil {
		switch mp.mode {
		case modeRetrain:
			if c.Result.Retrained {
				s.Retrained++
			} else {
				s.Skipped++
			}
			s.LastMAEBefore = c.Result.MAEBefore
			s.LastMAEAfter = c.Result.MAEAfter
			s.LastEpochs = c.Result.EpochsRun
		case modeRefresh:
			if c.Swapped {
				s.Refreshed++
			}
		}
	}
	if c.Swapped {
		s.SwapGeneration = c.Generation
	}
}

// modeOf picks the strongest update capability an estimator offers:
// retraining needs the Sec. 5.4 surface, refreshing needs rebind and
// rebuild, and everything else serves statically. Both update modes
// clone the estimator; a failed clone is the cycle's error.
func modeOf(m estimator.Estimator) updateMode {
	switch m.(type) {
	case Updatable:
		return modeRetrain
	case estimator.Refresher:
		return modeRefresh
	}
	return modeStatic
}

// valueIndex resolves delete-by-value against a database in O(1) per
// vector (absent vectors miss, so delete batches are idempotent against
// replays). Building it costs one O(|D|) pass; a cycle maintains it
// incrementally across coalesced entries so the whole apply step is
// O(|D| + inserts + deletes) instead of O(|D|·deletes).
type valueIndex struct {
	byValue map[string][]int // vector value key -> database row indices
}

func newValueIndex(db *vecdata.Database) *valueIndex {
	ix := &valueIndex{byValue: make(map[string][]int, db.Size())}
	ix.add(0, db.Vecs)
	return ix
}

// add registers vecs occupying database rows base, base+1, ...
func (ix *valueIndex) add(base int, vecs [][]float64) {
	for i, v := range vecs {
		k := vecValueKey(v)
		ix.byValue[k] = append(ix.byValue[k], base+i)
	}
}

// remove claims one row holding a vector equal to v, if any.
func (ix *valueIndex) remove(v []float64) (int, bool) {
	k := vecValueKey(v)
	left := ix.byValue[k]
	if len(left) == 0 {
		return 0, false
	}
	ix.byValue[k] = left[:len(left)-1]
	return left[len(left)-1], true
}

// vecValueKey is the exact-value identity of a vector (float bits, with
// -0.0 normalized to +0.0 so the key agrees with == comparison).
func vecValueKey(v []float64) string {
	buf := make([]byte, 0, 8*len(v))
	for _, x := range v {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x+0))
	}
	return string(buf)
}
