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
// applied), and in-flight inference batches drain.
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

// ingestOptions carries the -update-*, retrain, and journal flag values.
type ingestOptions struct {
	queueDepth     int
	coalesceMax    int
	retrainWorkers int
	deltaU         float64
	patience       int
	maxEpochs      int
	queries        int
	dist           distance.Func
	journalDir     string
	snapshotEvery  int
	compactBytes   int64
	syncInterval   time.Duration
	drift          *obs.DriftMonitor
	shadow         *obs.Shadow
	workload       *obs.WorkloadMonitor
	oracleBudget   int
}

// clusterOptions carries the -cluster-* flag values.
type clusterOptions struct {
	self       string
	peers      []string
	replicas   int
	heartbeat  time.Duration
	failover   time.Duration
	ack        int
	ackTimeout time.Duration
}

func (c clusterOptions) enabled() bool { return len(c.peers) > 0 }

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

// obsOptions carries the observability flag values.
type obsOptions struct {
	debugAddr     string
	traceSlow     time.Duration
	driftQError   float64
	kernelTiming  bool
	accessLog     bool
	shadowSample  float64
	shadowBudget  int
	workloadShift float64
	mutexFraction int
	blockRate     int
}

func main() {
	var models, data repeatedFlags
	addr := flag.String("addr", ":8080", "listen address")
	cacheSize := flag.Int("cache", 4096, "LRU estimate cache capacity; a key is cached on its second miss (0 disables)")
	quantum := flag.Float64("quantum", 1e-6, "cache key quantization step for query coordinates and thresholds")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown timeout")
	updateQueue := flag.Int("update-queue", 64, "pending update batches per model before 429 backpressure")
	coalesce := flag.Int("coalesce", 8, "max update batches fused into one retrain cycle")
	retrainWorkers := flag.Int("retrain-workers", 1, "concurrent shadow retrains across all models")
	deltaU := flag.Float64("delta-u", 1.0, "MAE-change threshold delta_U gating incremental retraining (Sec. 5.4)")
	patience := flag.Int("retrain-patience", 3, "non-improving epochs that stop incremental retraining")
	maxEpochs := flag.Int("retrain-epochs", 30, "max incremental epochs per retrain cycle")
	updateQueries := flag.Int("update-queries", 32, "query vectors in the generated delta_U validation workload")
	distName := flag.String("dist", "l2", "distance function for -data CSV databases: l2 or cosine")
	journalDir := flag.String("journal-dir", "", "directory for the durable update journal (empty keeps it in memory)")
	snapshotEvery := flag.Int("snapshot-every", 64, "applied update batches between durable snapshots (with -journal-dir)")
	compactBytes := flag.Int64("journal-compact-bytes", 4<<20, "WAL size forcing a snapshot+compaction (with -journal-dir)")
	syncInterval := flag.Duration("journal-sync-interval", 0, "tick-based WAL fsync window: batch records per fsync at the cost of up to this much added ack latency (0 = fsync per group commit)")
	debugAddr := flag.String("debug-addr", "", "secondary listen address serving net/http/pprof under /debug/pprof/ (empty disables)")
	traceSlow := flag.Duration("trace-slow", 100*time.Millisecond, "requests at least this slow are retained in the /debug/traces slowest-N list")
	driftQError := flag.Float64("drift-qerror", 0, "rolling p95 q-error above which an ingest cycle counts as drift_exceeded (0 disables the alarm counter)")
	kernelTiming := flag.Bool("kernel-timing", true, "accumulate per-kernel plan-execution timings (surfaced in /stats and /metrics)")
	accessLog := flag.Bool("access-log", false, "log every HTTP request via slog with its trace id")
	shadowSample := flag.Float64("shadow-sample", 0, "fraction of estimate requests shadow-scored against a ground-truth oracle, 0..1 (0 disables)")
	shadowBudget := flag.Int("shadow-oracle-budget", 2000, "max vectors the shadow oracle scans (or samples) per ground-truth evaluation")
	workloadShift := flag.Float64("workload-shift", 0.25, "live-vs-training workload divergence above which retraining is advised (with -shadow-sample)")
	mutexFraction := flag.Int("mutex-profile-fraction", 0, "runtime.SetMutexProfileFraction sampling rate for /debug/pprof/mutex (with -debug-addr; 0 disables)")
	blockRate := flag.Int("block-profile-rate", 0, "runtime.SetBlockProfileRate nanoseconds threshold for /debug/pprof/block (with -debug-addr; 0 disables)")
	clusterSelf := flag.String("cluster-self", "", "this node's base URL as peers reach it, e.g. http://10.0.0.1:8080 (with -cluster-peers)")
	clusterPeers := flag.String("cluster-peers", "", "comma-separated base URLs of every cluster node including this one (empty disables clustering)")
	clusterReplicas := flag.Int("cluster-replicas", 2, "replicas per model (clamped to the cluster size)")
	clusterHeartbeat := flag.Duration("cluster-heartbeat", 250*time.Millisecond, "peer heartbeat interval")
	clusterFailover := flag.Duration("cluster-failover", 0, "leader silence before a follower takes over (0 = 6x the heartbeat)")
	clusterAck := flag.Int("cluster-ack", 1, "follower journal acknowledgements required before an update is acknowledged (0 = asynchronous replication)")
	clusterAckTimeout := flag.Duration("cluster-ack-timeout", 5*time.Second, "max wait for follower acknowledgements before answering 503")
	routerMode := flag.String("router", "", "workload routing for the virtual names \"default\"/\"auto\": auto, ensemble, or an estimator kind slug (empty disables)")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of text")
	flag.Var(&models, "model", "model to serve as name=path (repeatable); bare path serves as \"default\"")
	flag.Var(&data, "data", "CSV vector database attached to a -model for streaming updates, as name=path.csv (repeatable)")
	flag.Parse()

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	slog.SetDefault(slog.New(handler))

	dist, err := distance.Parse(*distName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "selestd: %v\n", err)
		os.Exit(1)
	}
	opts := ingestOptions{
		queueDepth:     *updateQueue,
		coalesceMax:    *coalesce,
		retrainWorkers: *retrainWorkers,
		deltaU:         *deltaU,
		patience:       *patience,
		maxEpochs:      *maxEpochs,
		queries:        *updateQueries,
		dist:           dist,
		journalDir:     *journalDir,
		snapshotEvery:  *snapshotEvery,
		compactBytes:   *compactBytes,
		syncInterval:   *syncInterval,
	}
	oo := obsOptions{
		debugAddr:    *debugAddr,
		traceSlow:    *traceSlow,
		driftQError:  *driftQError,
		kernelTiming: *kernelTiming,
		accessLog:    *accessLog,

		shadowSample:  *shadowSample,
		shadowBudget:  *shadowBudget,
		workloadShift: *workloadShift,
		mutexFraction: *mutexFraction,
		blockRate:     *blockRate,
	}
	co := clusterOptions{
		self:       strings.TrimRight(strings.TrimSpace(*clusterSelf), "/"),
		peers:      parsePeers(*clusterPeers),
		replicas:   *clusterReplicas,
		heartbeat:  *clusterHeartbeat,
		failover:   *clusterFailover,
		ack:        *clusterAck,
		ackTimeout: *clusterAckTimeout,
	}
	cfg := serve.Config{
		Cache: serve.CacheConfig{Capacity: *cacheSize, Quantum: *quantum},
	}
	if err := validateFlags(cfg, opts, oo, co, *routerMode, *drain); err != nil {
		fmt.Fprintf(os.Stderr, "selestd: %v\n", err)
		os.Exit(1)
	}
	if err := run(*addr, models, data, cfg, opts, oo, co, *routerMode, *drain); err != nil {
		fmt.Fprintf(os.Stderr, "selestd: %v\n", err)
		os.Exit(1)
	}
}

// validateFlags rejects out-of-range flag values at startup with one
// clear error, instead of letting a bad value surface later as silent
// misbehavior (a negative sample rate never sampling, a zero queue
// rejecting every update).
func validateFlags(cfg serve.Config, opts ingestOptions, oo obsOptions, co clusterOptions, routerMode string, drain time.Duration) error {
	// flag.Float64 accepts NaN and ±Inf, and a NaN compares false with
	// everything, so it would slip past every range check below.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"-quantum", cfg.Cache.Quantum},
		{"-shadow-sample", oo.shadowSample},
		{"-drift-qerror", oo.driftQError},
		{"-workload-shift", oo.workloadShift},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%s must be finite, got %g", f.name, f.v)
		}
	}
	if math.IsNaN(opts.deltaU) {
		return fmt.Errorf("-delta-u must be a number, got %g", opts.deltaU)
	}
	if cfg.Cache.Quantum <= 0 {
		return fmt.Errorf("-quantum must be > 0, got %g", cfg.Cache.Quantum)
	}
	if oo.shadowSample < 0 || oo.shadowSample > 1 {
		return fmt.Errorf("-shadow-sample must be in [0,1], got %g", oo.shadowSample)
	}
	if routerMode != "" && !serve.ValidRouterMode(routerMode) {
		return fmt.Errorf("-router must be auto, ensemble, or an estimator kind slug, got %q", routerMode)
	}
	if oo.shadowBudget < 0 {
		return fmt.Errorf("-shadow-oracle-budget must be >= 0, got %d", oo.shadowBudget)
	}
	if oo.traceSlow < 0 {
		return fmt.Errorf("-trace-slow must be >= 0, got %s", oo.traceSlow)
	}
	if oo.driftQError < 0 {
		return fmt.Errorf("-drift-qerror must be >= 0, got %g", oo.driftQError)
	}
	if oo.workloadShift < 0 {
		return fmt.Errorf("-workload-shift must be >= 0, got %g", oo.workloadShift)
	}
	if cfg.Cache.Capacity < 0 {
		return fmt.Errorf("-cache must be >= 0, got %d", cfg.Cache.Capacity)
	}
	if opts.queueDepth < 1 {
		return fmt.Errorf("-update-queue must be >= 1, got %d", opts.queueDepth)
	}
	if opts.queries < 1 {
		return fmt.Errorf("-update-queries must be >= 1, got %d", opts.queries)
	}
	if opts.coalesceMax < 1 {
		return fmt.Errorf("-coalesce must be >= 1, got %d", opts.coalesceMax)
	}
	if opts.retrainWorkers < 1 {
		return fmt.Errorf("-retrain-workers must be >= 1, got %d", opts.retrainWorkers)
	}
	if opts.snapshotEvery < 1 {
		return fmt.Errorf("-snapshot-every must be >= 1, got %d", opts.snapshotEvery)
	}
	if opts.compactBytes < 0 {
		return fmt.Errorf("-journal-compact-bytes must be >= 0, got %d", opts.compactBytes)
	}
	if opts.syncInterval < 0 {
		return fmt.Errorf("-journal-sync-interval must be >= 0, got %s", opts.syncInterval)
	}
	if drain <= 0 {
		return fmt.Errorf("-drain must be > 0, got %s", drain)
	}
	if !co.enabled() {
		if co.self != "" {
			return fmt.Errorf("-cluster-self requires -cluster-peers")
		}
		return nil
	}
	if co.self == "" {
		return fmt.Errorf("-cluster-peers requires -cluster-self")
	}
	found := false
	for _, p := range co.peers {
		found = found || p == co.self
	}
	if !found {
		return fmt.Errorf("-cluster-self %q is not in -cluster-peers %v", co.self, co.peers)
	}
	if co.replicas < 1 {
		return fmt.Errorf("-cluster-replicas must be >= 1, got %d", co.replicas)
	}
	if co.heartbeat <= 0 {
		return fmt.Errorf("-cluster-heartbeat must be > 0, got %s", co.heartbeat)
	}
	if co.failover < 0 {
		return fmt.Errorf("-cluster-failover must be >= 0, got %s", co.failover)
	}
	if co.ack < 0 {
		return fmt.Errorf("-cluster-ack must be >= 0, got %d", co.ack)
	}
	if co.ackTimeout <= 0 {
		return fmt.Errorf("-cluster-ack-timeout must be > 0, got %s", co.ackTimeout)
	}
	if opts.journalDir == "" {
		return fmt.Errorf("-cluster-peers requires -journal-dir: replication streams the write-ahead log")
	}
	return nil
}

func run(addr string, models, data []string, cfg serve.Config, opts ingestOptions, oo obsOptions, co clusterOptions, routerMode string, drain time.Duration) error {
	// With clustering on, every node is configured identically (same
	// -model/-data specs, same peer list) and placement decides which
	// models this node actually loads and attaches; the full name list
	// still feeds the router so requests for remote models proxy out.
	var clusterModels []string
	hosted := func(string) bool { return true }
	if co.enabled() {
		seen := map[string]bool{}
		for _, spec := range models {
			name, _, ok := strings.Cut(spec, "=")
			if !ok {
				name = "default"
			}
			if !seen[name] {
				seen[name] = true
				clusterModels = append(clusterModels, name)
			}
		}
		hosted = func(name string) bool {
			for _, rep := range cluster.Placement(co.peers, co.replicas, name) {
				if rep == co.self {
					return true
				}
			}
			return false
		}
		kept := models[:0]
		for _, spec := range models {
			name, _, ok := strings.Cut(spec, "=")
			if !ok {
				name = "default"
			}
			if hosted(name) {
				kept = append(kept, spec)
			} else {
				slog.Info("model placed on other nodes; serving it by proxy", "model", name)
			}
		}
		models = kept
		keptData := data[:0]
		for _, spec := range data {
			name, _, ok := strings.Cut(spec, "=")
			if !ok {
				name = "default"
			}
			if hosted(name) {
				keptData = append(keptData, spec)
			}
		}
		data = keptData
	}

	srv := serve.NewServer(cfg)
	srv.SetTracer(obs.NewTracer(obs.TracerConfig{SlowThreshold: oo.traceSlow}))
	opts.drift = obs.NewDriftMonitor(obs.DriftConfig{Threshold: oo.driftQError})
	srv.SetDrift(opts.drift)
	infer.SetKernelTiming(oo.kernelTiming)
	if oo.accessLog {
		srv.SetAccessLog(slog.Default())
	}
	if oo.shadowSample > 0 {
		opts.workload = obs.NewWorkloadMonitor(obs.WorkloadConfig{Threshold: oo.workloadShift})
		opts.shadow = obs.NewShadow(obs.ShadowConfig{
			SampleRate: oo.shadowSample,
			Workload:   opts.workload,
		})
		opts.oracleBudget = oo.shadowBudget
		srv.SetShadow(opts.shadow)
		// Close stops the oracle workers after the ingest pipeline (whose
		// databases they read) has drained; deferred before attachIngest so
		// it runs after the pipeline's own deferred Close.
		defer opts.shadow.Close()
		slog.Info("shadow accuracy sampling enabled",
			"rate", oo.shadowSample, "oracle_budget", oo.shadowBudget, "workload_shift", oo.workloadShift)
	}
	// srv.Close() waits for in-flight batches, which is unbounded if a
	// handler is stuck; the drain-timeout path below skips it so -drain
	// really bounds shutdown.
	closeServer := true
	defer func() {
		if closeServer {
			srv.Close()
		}
	}()

	loaded := map[string]estimator.Estimator{}
	for _, spec := range models {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			name, path = "default", spec
		}
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
	if routerMode != "" {
		srv.SetRouter(serve.NewRouter(srv.Registry(), serve.RouterConfig{Mode: routerMode}))
		slog.Info("workload router enabled", "mode", routerMode, "virtual_names", "default, auto")
	}

	// Like srv.Close, draining the update journals (shadow retrains
	// included) is unbounded work; the drain-timeout path below skips it
	// so -drain really bounds shutdown even with a full update queue.
	drainPipeline := true
	pipe, err := attachIngest(srv, loaded, data, opts)
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
	if co.enabled() {
		if pipe == nil {
			return fmt.Errorf("clustering requires at least one -data attachment: replication streams the update journal")
		}
		node, err := cluster.NewNode(cluster.Config{
			Self: co.self, Peers: co.peers, Replicas: co.replicas,
			Models: clusterModels, Pipe: pipe,
			Heartbeat: co.heartbeat, FailAfter: co.failover,
			AckFollowers: co.ack, AckTimeout: co.ackTimeout,
			Monitor: obs.NewClusterMonitor(), Logger: slog.Default(),
		})
		if err != nil {
			return err
		}
		srv.SetUpdater(node)
		srv.SetCluster(node)
		node.Start()
		defer node.Close()
		slog.Info("cluster enabled", "self", co.self, "peers", len(co.peers),
			"replicas", co.replicas, "hosted", node.Hosted(), "ack_followers", co.ack)
	}

	// The pprof surface lives on its own listener so profiling never
	// shares a port (or an operator firewall rule) with the public API.
	var ds *http.Server
	if oo.debugAddr != "" {
		// Contention profiling is opt-in and gated on the debug listener:
		// without a pprof surface the samples would accumulate unread.
		if oo.mutexFraction > 0 {
			runtime.SetMutexProfileFraction(oo.mutexFraction)
		}
		if oo.blockRate > 0 {
			runtime.SetBlockProfileRate(oo.blockRate)
		}
		dm := http.NewServeMux()
		dm.HandleFunc("/debug/pprof/", pprof.Index)
		dm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ds = &http.Server{Addr: oo.debugAddr, Handler: dm}
		go func() {
			slog.Info("debug listener (pprof) up", "addr", oo.debugAddr)
			if err := ds.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				slog.Warn("debug listener failed", "addr", oo.debugAddr, "err", err)
			}
		}()
		defer ds.Close()
	}

	hs := &http.Server{Addr: addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		slog.Info("selestd listening", "addr", addr)
		errc <- hs.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		slog.Info("draining", "signal", sig.String(), "timeout", drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			// Handlers are still running; draining their batches — or the
			// update journals, whose shadow retrains can take minutes —
			// would block past the deadline the operator asked for.
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
	// srv.Close() then drains inference batches.
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
func attachIngest(srv *serve.Server, loaded map[string]estimator.Estimator, data []string, opts ingestOptions) (*ingest.Pipeline, error) {
	if len(data) == 0 {
		if opts.journalDir != "" {
			warnOrphanJournals(opts.journalDir, nil)
		}
		return nil, nil
	}
	tc := selnet.DefaultTrainConfig()
	tc.AEPretrainEpochs = 0 // incremental retraining continues from current weights
	pipe := ingest.New(ingest.Config{
		Registry:       srv.Registry(),
		QueueDepth:     opts.queueDepth,
		CoalesceMax:    opts.coalesceMax,
		RetrainWorkers: opts.retrainWorkers,
		Train:          tc,
		Update:         selnet.UpdateConfig{DeltaU: opts.deltaU, Patience: opts.patience, MaxEpochs: opts.maxEpochs},
		Drift:          opts.drift,
		Shadow:         opts.shadow,
		Workload:       opts.workload,
		Oracle:         ingest.OracleConfig{Budget: opts.oracleBudget},
		Journal: ingest.JournalConfig{
			Dir:           opts.journalDir,
			SnapshotEvery: opts.snapshotEvery,
			CompactBytes:  opts.compactBytes,
			SyncInterval:  opts.syncInterval,
			OnRecover: func(model string, r ingest.Recovery) {
				slog.Info("journal recovered", "model", model, "snapshot_seq", r.SnapshotSeq,
					"model_restored", r.RestoredModel, "replayed", r.Replayed, "discarded_bytes", r.DiscardedBytes)
			},
		},
		OnCycle: func(model string, c ingest.Cycle) {
			if c.Err != nil {
				slog.Warn("ingest cycle failed", "model", model,
					"first_seq", c.FirstSeq, "last_seq", c.LastSeq, "err", c.Err)
				return
			}
			slog.Info("ingest cycle", "model", model,
				"first_seq", c.FirstSeq, "last_seq", c.LastSeq,
				"inserted", c.Inserted, "deleted", c.Deleted,
				"retrained", c.Result.Retrained, "epochs", c.Result.EpochsRun,
				"mae_before", c.Result.MAEBefore, "mae_after", c.Result.MAEAfter,
				"generation", c.Generation, "duration", c.Duration.Round(time.Millisecond))
		},
	})
	attached := map[string]bool{}
	for _, spec := range data {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			name, path = "default", spec
		}
		m, okM := loaded[name]
		if !okM {
			pipe.Close()
			return nil, fmt.Errorf("-data %s: no -model loaded under %q", spec, name)
		}
		db, err := vecdata.ReadCSVFile(path, opts.dist)
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
		wl := vecdata.GeometricWorkload(rng, db, opts.queries, 4)
		cut := len(wl.Queries) * 3 / 4
		if err := pipe.Attach(name, m, db, wl.Queries[:cut], wl.Queries[cut:]); err != nil {
			pipe.Close()
			return nil, err
		}
		attached[name] = true
		slog.Info("attached for streaming updates", "model", name, "vectors", db.Size(),
			"delta_u_queries", len(wl.Queries), "queue", opts.queueDepth, "durable", opts.journalDir != "")
	}
	if opts.journalDir != "" {
		warnOrphanJournals(opts.journalDir, attached)
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
