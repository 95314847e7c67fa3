// Command selestd is the selectivity-estimation serving daemon: it
// loads trained .gob models (from 'selest train', or any consistent
// estimator saved through the kind-tagged model codec — SelNet, KDE,
// LSH sampling, monotone GBM, DLN, UMNN) and serves estimates over HTTP
// with batched inference, an LRU estimate cache, hot-swappable models,
// and — for models attached to a database via -data — streaming
// insert/delete ingestion with Sec. 5.4 shadow retraining. Estimators
// without an incremental-training path degrade by capability: LSH
// refreshes its derived state against the updated database, static
// kinds keep serving while the database and journal absorb updates.
//
//	selestd -addr :8080 -model default=model.gob -data default=vectors.csv
//
// API (JSON):
//
//	GET  /healthz                   liveness probe
//	GET  /stats                     server, cache, ingest, per-model counters
//	GET  /metrics                   Prometheus text exposition
//	GET  /debug/traces              recent + slowest request spans (see -trace-slow)
//	GET  /debug/accuracy            shadow-scored q-error breakdowns (see -shadow-sample)
//	GET  /v1/buildinfo              binary version, go version, uptime
//	GET  /v1/cluster                shard map: model -> replicas/leader (with -cluster-peers)
//	GET  /v1/models                 list loaded models
//	POST /v1/models/{name}          load or hot-swap a model: {"path": "model.gob"}
//	POST /v1/models/{name}/update   {"insert": [[...]], "delete": [[...]]}
//	POST /v1/estimate               {"model": "default", "query": [...], "t": 0.2}
//	POST /v1/estimate/batch         {"model": "default", "queries": [[...], ...], "ts": [...]}
//
// Updates are journaled per model and answered 202 immediately (429
// under queue backpressure); a background worker coalesces pending
// batches, applies them to the model's private database copy, runs the
// δ_U accuracy check on a shadow clone, and hot-swaps the retrained
// shadow in — serving traffic never blocks on retraining.
//
// With -journal-dir set, the update journal is crash-durable: every
// accepted batch is fsynced to a per-model write-ahead log before the
// 202, a background snapshotter persists each model's database and
// weights so the log stays bounded, and on boot the daemon recovers —
// snapshot load, corrupt-tail truncation, replay of the surviving
// records through the δ_U pipeline — so a SIGKILL loses nothing that
// was acknowledged.
//
// Models may be any servable estimator kind — single or partitioned
// SelNet, KDE, LSH sampling, monotone GBM, DLN, UMNN — saved with the
// kind-tagged codec; the loader sniffs the kind (legacy SelNet files
// included) and every kind serves estimates and hot-swaps. Servable
// means consistent: a model whose estimates may decrease as t grows (a
// GBM fitted without the monotone constraint, a retired DNN/MoE/RMI
// file) fails to load with code inconsistent_kind.
//
// With -router set, requests naming "default" (when no concrete model
// holds that name) or "auto" are routed across the loaded models:
// "auto" picks per query dimension — a sampling-backed estimator when
// its data size is within the VC bound m* = (d+1+ln(1/δ))/(2ε²), a
// SelNet-class model in high dimension — "ensemble" blends every
// dimension-compatible model in log space, and an explicit kind slug
// ("kde", "lsh", ...) pins the virtual names to that kind. Decisions
// are surfaced in /stats (router section) and /metrics
// (selestd_router_decisions_total).
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener stops, open
// requests finish, the ingest journals drain (every accepted batch is
// applied), and Close waits for the single estimates already admitted.
//
// With -cluster-peers set, several selestd processes form one serving
// group: models are placed on nodes by consistent hashing with
// -cluster-replicas-way replication, each model's leader streams its
// write-ahead log to the follower replicas, reads fan out to any
// replica, updates are proxied to the leader (and acknowledged only
// after -cluster-ack followers journaled them), and leadership fails
// over to the most caught-up follower when the leader stops answering
// heartbeats. GET /v1/cluster serves the shard map. Clustering requires
// -journal-dir (replication streams the WAL) and every clustered model
// needs a -data attachment.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"selnet/internal/cluster"
	"selnet/internal/distance"
	"selnet/internal/estimator"
	"selnet/internal/infer"
	"selnet/internal/ingest"
	"selnet/internal/modelcodec"
	"selnet/internal/obs"
	"selnet/internal/selnet"
	"selnet/internal/serve"
	"selnet/internal/vecdata"
)

// repeatedFlags collects repeated name=value arguments.
type repeatedFlags []string

func (m *repeatedFlags) String() string { return strings.Join(*m, ",") }

func (m *repeatedFlags) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// parsePeers splits a comma-separated peer list into normalized base
// URLs (trailing slashes stripped, empties dropped).
func parsePeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// splitSpec splits a -model or -data spec into its model name and
// path; a bare path names "default".
func splitSpec(spec string) (name, path string) {
	name, path, ok := strings.Cut(spec, "=")
	if !ok {
		return "default", spec
	}
	return name, path
}

// config is the daemon's whole configuration. Each flag binds directly
// onto one field, most of them onto the serve, ingest, cluster and obs
// configs that run hands to those packages, and each of those starts
// from its package's defaults, so a flag's default is written once.
type config struct {
	addr, debugAddr, dist, router    string
	models, data                     repeatedFlags
	drain                            time.Duration
	updateQueries                    int
	kernelTiming, accessLog, logJSON bool
	mutexFraction, blockRate         int

	serve    serve.Config
	ingest   ingest.Config
	cluster  cluster.Config
	trace    obs.TracerConfig
	drift    obs.DriftConfig
	shadow   obs.ShadowConfig
	workload obs.WorkloadConfig
}

// newConfig returns the configuration the daemon runs with when no
// flag is given.
func newConfig() *config {
	c := &config{
		addr: ":8080", dist: "l2", drain: 10 * time.Second,
		updateQueries: 32, kernelTiming: true,
		serve:    serve.Config{Cache: serve.DefaultCacheConfig()},
		ingest:   ingest.DefaultConfig(),
		cluster:  cluster.DefaultConfig(),
		trace:    obs.DefaultTracerConfig(),
		workload: obs.WorkloadConfig{Threshold: 0.25},
	}
	c.cluster.AckFollowers = 1
	c.ingest.Train = selnet.DefaultTrainConfig()
	c.ingest.Train.AEPretrainEpochs = 0 // incremental retraining continues from current weights
	return c
}

// bind registers every flag on fs, each defaulting to c's current value.
func (c *config) bind(fs *flag.FlagSet) {
	ic, cc := &c.ingest, &c.cluster
	fs.StringVar(&c.addr, "addr", c.addr, "listen address")
	fs.IntVar(&c.serve.Cache.Capacity, "cache", c.serve.Cache.Capacity, "LRU estimate cache capacity; a key is cached on its second miss (0 disables)")
	fs.Float64Var(&c.serve.Cache.Quantum, "quantum", c.serve.Cache.Quantum, "cache key quantization step for query coordinates and thresholds")
	fs.DurationVar(&c.drain, "drain", c.drain, "graceful shutdown timeout")
	fs.IntVar(&ic.QueueDepth, "update-queue", ic.QueueDepth, "pending update batches per model before 429 backpressure")
	fs.IntVar(&ic.RetrainWorkers, "retrain-workers", ic.RetrainWorkers, "concurrent shadow retrains across all models")
	fs.Float64Var(&ic.Update.DeltaU, "delta-u", ic.Update.DeltaU, "MAE-change threshold delta_U gating incremental retraining (Sec. 5.4)")
	fs.IntVar(&ic.Update.Patience, "retrain-patience", ic.Update.Patience, "non-improving epochs that stop incremental retraining")
	fs.IntVar(&ic.Update.MaxEpochs, "retrain-epochs", ic.Update.MaxEpochs, "max incremental epochs per retrain cycle")
	fs.IntVar(&c.updateQueries, "update-queries", c.updateQueries, "query vectors in the generated delta_U validation workload")
	fs.StringVar(&c.dist, "dist", c.dist, "distance function for -data CSV databases: l2 or cosine")
	fs.StringVar(&ic.Journal.Dir, "journal-dir", ic.Journal.Dir, "directory for the durable update journal (empty keeps it in memory)")
	fs.IntVar(&ic.Journal.SnapshotEvery, "snapshot-every", ic.Journal.SnapshotEvery, "applied update batches between durable snapshots (with -journal-dir)")
	fs.Int64Var(&ic.Journal.CompactBytes, "journal-compact-bytes", ic.Journal.CompactBytes, "WAL size forcing a snapshot+compaction (with -journal-dir)")
	fs.StringVar(&c.debugAddr, "debug-addr", c.debugAddr, "secondary listen address serving net/http/pprof under /debug/pprof/ (empty disables)")
	fs.DurationVar(&c.trace.SlowThreshold, "trace-slow", c.trace.SlowThreshold, "requests at least this slow are retained in the /debug/traces slowest-N list")
	fs.Float64Var(&c.drift.Threshold, "drift-qerror", c.drift.Threshold, "rolling p95 q-error above which an ingest cycle counts as drift_exceeded (0 disables the alarm counter)")
	fs.BoolVar(&c.kernelTiming, "kernel-timing", c.kernelTiming, "accumulate per-kernel plan-execution timings (surfaced in /stats and /metrics)")
	fs.BoolVar(&c.accessLog, "access-log", c.accessLog, "log every HTTP request via slog with its trace id")
	fs.Float64Var(&c.shadow.SampleRate, "shadow-sample", c.shadow.SampleRate, "fraction of estimate requests shadow-scored against a ground-truth oracle, 0..1 (0 disables)")
	fs.IntVar(&ic.Oracle.Budget, "shadow-oracle-budget", ic.Oracle.Budget, "max vectors the shadow oracle scans (or samples) per ground-truth evaluation")
	fs.Float64Var(&c.workload.Threshold, "workload-shift", c.workload.Threshold, "live-vs-training workload divergence above which retraining is advised (with -shadow-sample; 0 disables the alarm)")
	fs.IntVar(&c.mutexFraction, "mutex-profile-fraction", c.mutexFraction, "runtime.SetMutexProfileFraction sampling rate for /debug/pprof/mutex (with -debug-addr; 0 disables)")
	fs.IntVar(&c.blockRate, "block-profile-rate", c.blockRate, "runtime.SetBlockProfileRate nanoseconds threshold for /debug/pprof/block (with -debug-addr; 0 disables)")
	fs.Func("cluster-self", "this node's base URL as peers reach it, e.g. http://10.0.0.1:8080 (with -cluster-peers)", func(v string) error {
		cc.Self = strings.TrimRight(strings.TrimSpace(v), "/")
		return nil
	})
	fs.Func("cluster-peers", "comma-separated base URLs of every cluster node including this one (empty disables clustering)", func(v string) error {
		cc.Peers = parsePeers(v)
		return nil
	})
	fs.IntVar(&cc.Replicas, "cluster-replicas", cc.Replicas, "replicas per model (clamped to the cluster size)")
	fs.DurationVar(&cc.Heartbeat, "cluster-heartbeat", cc.Heartbeat, "peer heartbeat interval")
	fs.DurationVar(&cc.FailAfter, "cluster-failover", cc.FailAfter, "leader silence before a follower takes over (0 = 6x the heartbeat)")
	fs.IntVar(&cc.AckFollowers, "cluster-ack", cc.AckFollowers, "follower journal acknowledgements required before an update is acknowledged (0 = asynchronous replication)")
	fs.DurationVar(&cc.AckTimeout, "cluster-ack-timeout", cc.AckTimeout, "max wait for follower acknowledgements before answering 503")
	fs.StringVar(&c.router, "router", c.router, "workload routing for the virtual names \"default\"/\"auto\": auto, ensemble, or an estimator kind slug (empty disables)")
	fs.BoolVar(&c.logJSON, "log-json", c.logJSON, "emit logs as JSON instead of text")
	fs.Var(&c.models, "model", "model to serve as name=path (repeatable); bare path serves as \"default\"")
	fs.Var(&c.data, "data", "CSV vector database attached to a -model for streaming updates, as name=path.csv (repeatable)")
}

func main() {
	c := newConfig()
	c.bind(flag.CommandLine)
	flag.Parse()

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if c.logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	slog.SetDefault(slog.New(handler))

	err := validateFlags(c)
	if err == nil {
		err = run(c)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "selestd: %v\n", err)
		os.Exit(1)
	}
}

// validateFlags rejects out-of-range flag values at startup with one
// clear error, instead of letting a bad value surface later as silent
// misbehavior (a negative sample rate never sampling, a zero queue
// rejecting every update, a zero that a package would quietly replace
// with its default).
func validateFlags(c *config) error {
	ic, cc := &c.ingest, &c.cluster
	// flag.Float64 accepts NaN and ±Inf, and a NaN compares false with
	// everything, so it would slip past every range check below.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"-quantum", c.serve.Cache.Quantum},
		{"-shadow-sample", c.shadow.SampleRate},
		{"-drift-qerror", c.drift.Threshold},
		{"-workload-shift", c.workload.Threshold},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%s must be finite, got %g", f.name, f.v)
		}
	}
	if math.IsNaN(ic.Update.DeltaU) {
		return fmt.Errorf("-delta-u must be a number, got %g", ic.Update.DeltaU)
	}
	if _, err := distance.Parse(c.dist); err != nil {
		return fmt.Errorf("-dist: %w", err)
	}
	if c.serve.Cache.Quantum <= 0 {
		return fmt.Errorf("-quantum must be > 0, got %g", c.serve.Cache.Quantum)
	}
	if c.shadow.SampleRate < 0 || c.shadow.SampleRate > 1 {
		return fmt.Errorf("-shadow-sample must be in [0,1], got %g", c.shadow.SampleRate)
	}
	if c.router != "" && !serve.ValidRouterMode(c.router) {
		return fmt.Errorf("-router must be auto, ensemble, or an estimator kind slug, got %q", c.router)
	}
	if ic.Oracle.Budget < 1 {
		return fmt.Errorf("-shadow-oracle-budget must be >= 1, got %d", ic.Oracle.Budget)
	}
	if c.trace.SlowThreshold <= 0 {
		return fmt.Errorf("-trace-slow must be > 0, got %s", c.trace.SlowThreshold)
	}
	if c.drift.Threshold < 0 {
		return fmt.Errorf("-drift-qerror must be >= 0, got %g", c.drift.Threshold)
	}
	if c.workload.Threshold < 0 {
		return fmt.Errorf("-workload-shift must be >= 0, got %g", c.workload.Threshold)
	}
	if c.serve.Cache.Capacity < 0 {
		return fmt.Errorf("-cache must be >= 0, got %d", c.serve.Cache.Capacity)
	}
	if ic.QueueDepth < 1 {
		return fmt.Errorf("-update-queue must be >= 1, got %d", ic.QueueDepth)
	}
	if c.updateQueries < 1 {
		return fmt.Errorf("-update-queries must be >= 1, got %d", c.updateQueries)
	}
	if ic.RetrainWorkers < 1 {
		return fmt.Errorf("-retrain-workers must be >= 1, got %d", ic.RetrainWorkers)
	}
	if ic.Journal.SnapshotEvery < 1 {
		return fmt.Errorf("-snapshot-every must be >= 1, got %d", ic.Journal.SnapshotEvery)
	}
	if ic.Journal.CompactBytes < 1 {
		return fmt.Errorf("-journal-compact-bytes must be >= 1, got %d", ic.Journal.CompactBytes)
	}
	if c.drain <= 0 {
		return fmt.Errorf("-drain must be > 0, got %s", c.drain)
	}
	if len(cc.Peers) == 0 {
		if cc.Self != "" {
			return fmt.Errorf("-cluster-self requires -cluster-peers")
		}
		return nil
	}
	if cc.Self == "" {
		return fmt.Errorf("-cluster-peers requires -cluster-self")
	}
	if !slices.Contains(cc.Peers, cc.Self) {
		return fmt.Errorf("-cluster-self %q is not in -cluster-peers %v", cc.Self, cc.Peers)
	}
	if cc.Replicas < 1 {
		return fmt.Errorf("-cluster-replicas must be >= 1, got %d", cc.Replicas)
	}
	if cc.Heartbeat <= 0 {
		return fmt.Errorf("-cluster-heartbeat must be > 0, got %s", cc.Heartbeat)
	}
	if cc.FailAfter < 0 {
		return fmt.Errorf("-cluster-failover must be >= 0, got %s", cc.FailAfter)
	}
	if cc.AckFollowers < 0 {
		return fmt.Errorf("-cluster-ack must be >= 0, got %d", cc.AckFollowers)
	}
	if cc.AckTimeout <= 0 {
		return fmt.Errorf("-cluster-ack-timeout must be > 0, got %s", cc.AckTimeout)
	}
	if ic.Journal.Dir == "" {
		return fmt.Errorf("-cluster-peers requires -journal-dir: replication streams the write-ahead log")
	}
	return nil
}

func run(c *config) error {
	models, data, co := c.models, c.data, &c.cluster
	// With clustering on, every node is configured identically (same
	// -model/-data specs, same peer list) and placement decides which
	// models this node actually loads and attaches; the full name list
	// (co.Models) still feeds the router so requests for remote models
	// proxy out.
	if len(co.Peers) > 0 {
		for _, spec := range models {
			if name, _ := splitSpec(spec); !slices.Contains(co.Models, name) {
				co.Models = append(co.Models, name)
			}
		}
		placedElsewhere := func(spec string) bool {
			name, _ := splitSpec(spec)
			return !slices.Contains(cluster.Placement(co.Peers, co.Replicas, name), co.Self)
		}
		models = slices.DeleteFunc(models, func(spec string) bool {
			if placedElsewhere(spec) {
				name, _ := splitSpec(spec)
				slog.Info("model placed on other nodes; serving it by proxy", "model", name)
				return true
			}
			return false
		})
		data = slices.DeleteFunc(data, placedElsewhere)
	}

	srv := serve.NewServer(c.serve)
	srv.SetTracer(obs.NewTracer(c.trace))
	ic := &c.ingest
	ic.Registry = srv.Registry()
	ic.Drift = obs.NewDriftMonitor(c.drift)
	srv.SetDrift(ic.Drift)
	infer.SetKernelTiming(c.kernelTiming)
	if c.accessLog {
		srv.SetAccessLog(slog.Default())
	}
	if c.shadow.SampleRate > 0 {
		ic.Workload = obs.NewWorkloadMonitor(c.workload)
		c.shadow.Workload = ic.Workload
		ic.Shadow = obs.NewShadow(c.shadow)
		srv.SetShadow(ic.Shadow)
		// Close stops the oracle workers after the ingest pipeline (whose
		// databases they read) has drained; deferred before attachIngest so
		// it runs after the pipeline's own deferred Close.
		defer ic.Shadow.Close()
		slog.Info("shadow accuracy sampling enabled",
			"rate", c.shadow.SampleRate, "oracle_budget", ic.Oracle.Budget, "workload_shift", c.workload.Threshold)
	}
	// srv.Close() waits for the estimates already admitted, which is
	// unbounded if an estimator is stuck; the drain-timeout path below
	// skips it so -drain really bounds shutdown.
	closeServer := true
	defer func() {
		if closeServer {
			srv.Close()
		}
	}()

	loaded := map[string]estimator.Estimator{}
	for _, spec := range models {
		name, path := splitSpec(spec)
		m, err := modelcodec.LoadFile(path)
		if err != nil {
			return fmt.Errorf("load -model %s: %w", spec, err)
		}
		if _, err := srv.Registry().Publish(name, m, path); err != nil {
			return err
		}
		loaded[name] = m
		slog.Info("model loaded", "name", name, "path", path,
			"kind", modelcodec.Kind(m), "estimator", m.Name(), "dim", m.Dim(), "t_max", m.TMax())
	}
	if len(models) == 0 {
		slog.Info("no -model given; load one with POST /v1/models/{name}")
	}
	if c.router != "" {
		srv.SetRouter(serve.NewRouter(srv.Registry(), serve.RouterConfig{Mode: c.router}))
		slog.Info("workload router enabled", "mode", c.router, "virtual_names", "default, auto")
	}

	// Like srv.Close, draining the update journals (shadow retrains
	// included) is unbounded work; the drain-timeout path below skips it
	// so -drain really bounds shutdown even with a full update queue.
	drainPipeline := true
	pipe, err := attachIngest(srv, loaded, data, c)
	if err != nil {
		return err
	}
	if pipe != nil {
		defer func() {
			if drainPipeline {
				pipe.Close()
			}
		}()
	}

	// Cluster mode: wrap the pipeline in a cluster node so updates go
	// through leadership + replication acks, and attach the router so
	// the server proxies requests for models placed elsewhere. Deferred
	// after the pipeline's Close, so the node's loops stop first.
	if len(co.Peers) > 0 {
		if pipe == nil {
			return fmt.Errorf("clustering requires at least one -data attachment: replication streams the update journal")
		}
		co.Pipe, co.Logger = pipe, slog.Default()
		node, err := cluster.NewNode(*co)
		if err != nil {
			return err
		}
		srv.SetUpdater(node)
		srv.SetCluster(node)
		node.Start()
		defer node.Close()
		slog.Info("cluster enabled", "self", co.Self, "peers", len(co.Peers),
			"replicas", co.Replicas, "hosted", node.Hosted(), "ack_followers", co.AckFollowers)
	}

	// The pprof surface lives on its own listener so profiling never
	// shares a port (or an operator firewall rule) with the public API.
	var ds *http.Server
	if c.debugAddr != "" {
		// Contention profiling is opt-in and gated on the debug listener:
		// without a pprof surface the samples would accumulate unread.
		if c.mutexFraction > 0 {
			runtime.SetMutexProfileFraction(c.mutexFraction)
		}
		if c.blockRate > 0 {
			runtime.SetBlockProfileRate(c.blockRate)
		}
		dm := http.NewServeMux()
		dm.HandleFunc("/debug/pprof/", pprof.Index)
		dm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ds = &http.Server{Addr: c.debugAddr, Handler: dm}
		go func() {
			slog.Info("debug listener (pprof) up", "addr", c.debugAddr)
			if err := ds.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				slog.Warn("debug listener failed", "addr", c.debugAddr, "err", err)
			}
		}()
		defer ds.Close()
	}

	hs := &http.Server{Addr: c.addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		slog.Info("selestd listening", "addr", c.addr)
		errc <- hs.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		slog.Info("draining", "signal", sig.String(), "timeout", c.drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), c.drain)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			// Handlers are still running; waiting for their estimates — or
			// draining the update journals, whose shadow retrains can take
			// minutes — would block past the deadline the operator asked
			// for.
			closeServer = false
			drainPipeline = false
			slog.Warn("drain timeout exceeded, exiting with requests in flight")
			return nil
		}
		return err
	}
	// Shutdown returned cleanly: handlers finished. Drain the update
	// journals now (accepted batches are applied before exit — Close is
	// idempotent, so the deferred call becomes a no-op); the deferred
	// srv.Close() then finds no estimate left in flight.
	if pipe != nil {
		pipe.Close()
	}
	slog.Info("bye")
	return nil
}

// attachIngest builds the update pipeline for every -data spec, pairing
// each CSV database with its already-loaded model and generating a
// labelled validation workload for the δ_U trigger. The pipeline
// degrades by estimator capability (retrain / refresh / static), so
// every model kind can attach. With -journal-dir, each Attach recovers
// the model's durable state first (snapshot + write-ahead-log replay)
// and the directory is scanned for journals whose models are not
// configured, which would otherwise never replay.
func attachIngest(srv *serve.Server, loaded map[string]estimator.Estimator, data []string, c *config) (*ingest.Pipeline, error) {
	ic := c.ingest
	if len(data) == 0 {
		if ic.Journal.Dir != "" {
			warnOrphanJournals(ic.Journal.Dir, nil)
		}
		return nil, nil
	}
	dist, err := distance.Parse(c.dist)
	if err != nil {
		return nil, err
	}
	ic.Journal.OnRecover = func(model string, r ingest.Recovery) {
		slog.Info("journal recovered", "model", model, "snapshot_seq", r.SnapshotSeq,
			"model_restored", r.RestoredModel, "replayed", r.Replayed, "discarded_bytes", r.DiscardedBytes)
	}
	ic.OnCycle = func(model string, cy ingest.Cycle) {
		if cy.Err != nil {
			slog.Warn("ingest cycle failed", "model", model,
				"first_seq", cy.FirstSeq, "last_seq", cy.LastSeq, "err", cy.Err)
			return
		}
		slog.Info("ingest cycle", "model", model,
			"first_seq", cy.FirstSeq, "last_seq", cy.LastSeq,
			"inserted", cy.Inserted, "deleted", cy.Deleted,
			"retrained", cy.Result.Retrained, "epochs", cy.Result.EpochsRun,
			"mae_before", cy.Result.MAEBefore, "mae_after", cy.Result.MAEAfter,
			"generation", cy.Generation, "duration", cy.Duration.Round(time.Millisecond))
	}
	pipe := ingest.New(ic)
	attached := map[string]bool{}
	for _, spec := range data {
		name, path := splitSpec(spec)
		m, okM := loaded[name]
		if !okM {
			pipe.Close()
			return nil, fmt.Errorf("-data %s: no -model loaded under %q", spec, name)
		}
		db, err := vecdata.ReadCSVFile(path, dist)
		if err != nil {
			pipe.Close()
			return nil, fmt.Errorf("load -data %s: %w", spec, err)
		}
		if db.Dim != m.Dim() {
			pipe.Close()
			return nil, fmt.Errorf("-data %s: database dim %d but model %q has dim %d", spec, db.Dim, name, m.Dim())
		}
		// The δ_U trigger needs labelled queries whose labels track the
		// evolving database; generate them from the data itself. (With a
		// journal, Attach relabels them against the recovered database.)
		rng := rand.New(rand.NewSource(1))
		wl := vecdata.GeometricWorkload(rng, db, c.updateQueries, 4)
		cut := len(wl.Queries) * 3 / 4
		if err := pipe.Attach(name, m, db, wl.Queries[:cut], wl.Queries[cut:]); err != nil {
			pipe.Close()
			return nil, err
		}
		attached[name] = true
		slog.Info("attached for streaming updates", "model", name, "vectors", db.Size(),
			"delta_u_queries", len(wl.Queries), "queue", ic.QueueDepth, "durable", ic.Journal.Dir != "")
	}
	if ic.Journal.Dir != "" {
		warnOrphanJournals(ic.Journal.Dir, attached)
	}
	srv.SetUpdater(pipe)
	return pipe, nil
}

// warnOrphanJournals logs journals present on disk whose models are not
// attached this boot: their acknowledged batches exist durably but will
// not replay until the model is configured again.
func warnOrphanJournals(dir string, attached map[string]bool) {
	infos, err := ingest.ScanJournalDir(dir)
	if err != nil {
		slog.Warn("journal scan failed", "dir", dir, "err", err)
		return
	}
	for _, info := range infos {
		if !attached[info.Model] {
			slog.Warn("orphan journal will not replay (-model/-data missing?)",
				"path", info.Path, "entries", info.Entries, "model", info.Model)
		}
	}
}
