package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"selnet/internal/estimator"
	"selnet/internal/infer"
	"selnet/internal/modelcodec"
	"selnet/internal/obs"
	"selnet/internal/tensor"
)

// Config assembles a Server.
type Config struct {
	// Batcher is passed to NewBatcher for each model; it has no
	// settings left.
	Batcher BatcherConfig
	// Cache tunes the shared estimate cache (Capacity 0 disables it).
	Cache CacheConfig
}

// Server is the HTTP model-serving front end: it owns the model
// registry, the per-model Batchers, and the estimate cache, and
// exposes them as a JSON API (see Handler for routes).
type Server struct {
	cfg      Config
	registry *Registry
	cache    *Cache
	updater  Updater
	started  time.Time
	tracer   *obs.Tracer
	drift    *obs.DriftMonitor
	shadow   *obs.Shadow
	logger   *slog.Logger
	cluster  ClusterRouter
	router   *Router

	requests atomic.Uint64 // HTTP requests accepted
	errors   atomic.Uint64 // requests answered 4xx/5xx
	swaps    atomic.Uint64 // registry hot-swaps (replacing publishes)
	latency  map[string]*obs.Histogram
}

// NewServer builds a server with an empty registry.
func NewServer(cfg Config) *Server {
	s := &Server{cfg: cfg, started: time.Now()}
	s.registry = NewRegistry(func(est estimator.Estimator) *Batcher { return NewBatcher(est, cfg.Batcher) })
	s.registry.SetSwapHook(func(name string, old, next *Model) {
		if old != nil && next != nil {
			s.swaps.Add(1)
		}
	})
	s.cache = NewCache(cfg.Cache)
	s.latency = make(map[string]*obs.Histogram)
	return s
}

// Registry exposes the model registry (the daemon preloads models
// through it).
func (s *Server) Registry() *Registry { return s.registry }

// SetUpdater attaches the update pipeline behind
// POST /v1/models/{name}/update. Call before Handler sees traffic;
// without one, update requests are answered 409.
func (s *Server) SetUpdater(u Updater) { s.updater = u }

// SetRouter attaches a workload router: requests naming "default" (with
// no concrete model published under that name) or "auto" resolve
// through it instead of answering 404. Install before serving traffic.
func (s *Server) SetRouter(rt *Router) { s.router = rt }

// SetTracer attaches the request tracer: spans are captured through
// the estimate path, served at GET /debug/traces, and exported as
// per-stage histograms in /metrics. Call before Handler sees traffic;
// without one, tracing is compiled out of the request path (a single
// nil check per handler).
func (s *Server) SetTracer(t *obs.Tracer) { s.tracer = t }

// SetDrift attaches the accuracy drift monitor so /stats and /metrics
// surface rolling q-error quantiles (the ingest pipeline feeds it).
// Call before Handler sees traffic.
func (s *Server) SetDrift(d *obs.DriftMonitor) { s.drift = d }

// SetShadow attaches the live-traffic accuracy sampler: a deterministic
// fraction of estimate requests is tapped (keyed by trace ID, enqueued
// without blocking) and scored against ground truth off the serving
// path, served at GET /debug/accuracy and in /stats + /metrics. The
// server installs a partition locator so samples from partitioned
// models are attributed to regions. Call before Handler sees traffic;
// without one, the tap is compiled out of the request path (a single
// nil check per handler).
func (s *Server) SetShadow(sh *obs.Shadow) {
	s.shadow = sh
	if sh == nil {
		return
	}
	sh.SetLocate(func(model string, x []float64, t float64) (int, bool) {
		m, ok := s.registry.Get(model)
		if !ok {
			return 0, false
		}
		pl, ok := m.Est.(estimator.PartitionLocator)
		if !ok {
			return 0, false
		}
		p := pl.PartitionOf(x, t)
		return p, p >= 0
	})
}

// SetAccessLog enables structured per-request logging (method, path,
// status, duration, trace ID) through l. Call before Handler sees
// traffic.
func (s *Server) SetAccessLog(l *slog.Logger) { s.logger = l }

// Close stops every model's Batcher from admitting estimates and waits
// for the single estimates already admitted. Call after the HTTP
// listener has stopped accepting requests.
func (s *Server) Close() { s.registry.Close() }

// Handler returns the route table:
//
//	GET  /healthz                     liveness probe
//	GET  /stats                       server, cache, ingest, per-model counters
//	GET  /metrics                     Prometheus text exposition
//	GET  /debug/traces                recent + slowest request spans (tracer attached)
//	GET  /debug/accuracy              shadow-scored q-error breakdowns (shadow attached)
//	GET  /v1/buildinfo                binary version, go version, uptime
//	GET  /v1/models                   list published models
//	POST /v1/models/{name}            load/hot-swap a .gob model: {"path": "..."}
//	POST /v1/models/{name}/update     journal an insert/delete batch
//	POST /v1/estimate                 {"model","query","t"} -> one estimate
//	POST /v1/estimate/batch           {"model","queries",["ts"|"t"]} -> estimates
//	GET  /v1/cluster                  shard map: model -> replicas/leader (cluster attached)
//	GET  /v1/cluster/...              intra-cluster API: peer state, WAL streaming
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.timed("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /stats", s.timed("/stats", s.handleStats))
	mux.HandleFunc("GET /metrics", s.timed("/metrics", s.handleMetrics))
	mux.HandleFunc("GET /v1/buildinfo", s.timed("/v1/buildinfo", s.handleBuildInfo))
	mux.HandleFunc("GET /v1/models", s.timed("/v1/models", s.handleListModels))
	mux.HandleFunc("POST /v1/models/{name}", s.timed("/v1/models/{name}", s.handleLoadModel))
	mux.HandleFunc("POST /v1/models/{name}/update", s.timed("/v1/models/{name}/update", s.routeWrite(s.handleUpdateModel)))
	mux.HandleFunc("POST /v1/estimate", s.timed("/v1/estimate", s.routeRead(s.handleEstimate)))
	mux.HandleFunc("POST /v1/estimate/batch", s.timed("/v1/estimate/batch", s.routeRead(s.handleEstimateBatch)))
	if s.cluster != nil {
		mux.HandleFunc("GET /v1/cluster", s.timed("/v1/cluster", s.handleClusterMap))
		mux.Handle("/v1/cluster/", s.cluster.Handler())
	}
	if s.tracer != nil {
		mux.HandleFunc("GET /debug/traces", s.timed("/debug/traces", s.handleTraces))
	}
	if s.shadow != nil {
		mux.HandleFunc("GET /debug/accuracy", s.timed("/debug/accuracy", s.handleAccuracy))
	}
	return s.count(mux)
}

// timed wraps a handler with the route's latency histogram. Handler
// registration happens before traffic, so the map needs no lock.
func (s *Server) timed(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := obs.NewHistogram(obs.LatencyBuckets()...)
	s.latency[route] = hist
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		hist.Observe(time.Since(start).Seconds())
	}
}

// count wraps the mux with the request/error counters, assigns each
// request a trace ID (echoed as X-Trace-Id and attached to the
// context for span capture), and emits the structured access log.
func (s *Server) count(next http.Handler) http.Handler {
	// Shadow sampling keys off the trace ID, so an attached sampler also
	// turns on ID minting even without a tracer or access log; a cluster
	// router does too, so every hop of a forwarded request shares one ID.
	traced := s.tracer != nil || s.logger != nil || s.shadow.Enabled() || s.cluster != nil
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		cw := &codeWriter{ResponseWriter: w, code: http.StatusOK}
		var id uint64
		var start time.Time
		if traced {
			if hopCount(r) > 0 {
				// A request forwarded by a peer already carries a trace ID;
				// adopt it so cross-node spans line up under one ID.
				id, _ = obs.ParseTraceID(r.Header.Get("X-Trace-Id"))
			}
			if id == 0 {
				id = obs.NextTraceID()
			}
			cw.Header().Set("X-Trace-Id", obs.FormatTraceID(id))
			r = r.WithContext(obs.WithTraceID(r.Context(), id))
			start = time.Now()
		}
		next.ServeHTTP(cw, r)
		if cw.code >= 400 {
			s.errors.Add(1)
		}
		if s.logger != nil {
			lvl := slog.LevelInfo
			if cw.code >= 400 {
				lvl = slog.LevelWarn
			}
			s.logger.LogAttrs(r.Context(), lvl, "request",
				slog.String("trace_id", obs.FormatTraceID(id)),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", cw.code),
				slog.Duration("duration", time.Since(start)))
		}
	})
}

type codeWriter struct {
	http.ResponseWriter
	code int
}

func (w *codeWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// ----------------------------------------------------------------------------
// Wire types

type estimateRequest struct {
	Model string    `json:"model"`
	Query []float64 `json:"query"`
	T     float64   `json:"t"`
}

type estimateResponse struct {
	Model    string  `json:"model"`
	Estimate float64 `json:"estimate"`
	T        float64 `json:"t"`
	Cached   bool    `json:"cached"`
}

type estimateBatchRequest struct {
	Model   string      `json:"model"`
	Queries [][]float64 `json:"queries"`
	// Ts gives one threshold per query; alternatively T broadcasts a
	// single threshold to every query.
	Ts []float64 `json:"ts,omitempty"`
	T  *float64  `json:"t,omitempty"`
}

type estimateBatchResponse struct {
	Model     string    `json:"model"`
	Estimates []float64 `json:"estimates"`
}

type loadModelRequest struct {
	Path string `json:"path"`
}

type updateModelRequest struct {
	// Insert holds vectors to add; Delete holds vectors to remove,
	// matched by value (absent vectors are ignored).
	Insert [][]float64 `json:"insert,omitempty"`
	Delete [][]float64 `json:"delete,omitempty"`
}

type updateModelResponse struct {
	Model string `json:"model"`
	// Seq is the journal sequence assigned to this batch; compare against
	// the model's applied_seq in /stats to see when it has taken effect.
	Seq        uint64 `json:"seq"`
	QueueDepth int    `json:"queue_depth"`
}

type modelInfo struct {
	Name string `json:"name"`
	// Kind is the codec slug ("selnet", "kde", ...); Estimator is the
	// model's self-reported architecture name ("SelNet-ct", "KDE", ...).
	Kind       string    `json:"kind"`
	Estimator  string    `json:"estimator"`
	Dim        int       `json:"dim"`
	TMax       float64   `json:"t_max"`
	Source     string    `json:"source,omitempty"`
	Generation uint64    `json:"generation"`
	LoadedAt   time.Time `json:"loaded_at"`
	// Partitions is the local-model count for partitioned estimators.
	Partitions int `json:"partitions,omitempty"`
	// Router lists the virtual routes currently resolving to this model
	// (e.g. "dim=3"), when a workload router is attached.
	Router  []string      `json:"router,omitempty"`
	Batcher *BatcherStats `json:"batcher,omitempty"`
	// Plans reports the model's compiled-plan pool counters (checkouts,
	// pool misses, compiles, drops) when the estimator runs on the plan
	// engine.
	Plans *infer.PoolStats `json:"plans,omitempty"`
}

type statsResponse struct {
	UptimeSeconds float64                 `json:"uptime_seconds"`
	Requests      uint64                  `json:"requests"`
	Errors        uint64                  `json:"errors"`
	Swaps         uint64                  `json:"swaps"`
	Build         obs.BuildInfo           `json:"build"`
	Cache         CacheStats              `json:"cache"`
	Models        []modelInfo             `json:"models"`
	Ingest        map[string]UpdaterStats `json:"ingest,omitempty"`
	Trace         *obs.TracerStats        `json:"trace,omitempty"`
	// Kernels reports process-wide per-kernel plan-execution time
	// (present once kernel timing has recorded at least one call).
	Kernels []infer.KernelStat        `json:"kernels,omitempty"`
	Drift   map[string]obs.DriftStats `json:"drift,omitempty"`
	// Shadow and Workload surface the live-traffic accuracy sampler
	// when one is attached (full detail lives at /debug/accuracy).
	Shadow   *obs.ShadowStats             `json:"shadow,omitempty"`
	Workload map[string]obs.WorkloadStats `json:"workload,omitempty"`
	// Cluster is the per-model replication picture (leadership, terms,
	// follower lag) when a cluster router is attached; its concrete type
	// lives in internal/cluster.
	Cluster any `json:"cluster,omitempty"`
	// Router reports the workload router's policy, cached assignments
	// and decision counters when one is attached.
	Router *RouterStats `json:"router,omitempty"`
}

type tracesResponse struct {
	Stats  obs.TracerStats `json:"stats"`
	Recent []obs.Span      `json:"recent"`
	Slow   []obs.Span      `json:"slow"`
}

type accuracyResponse struct {
	Sampler  obs.ShadowStats              `json:"sampler"`
	Models   map[string]obs.AccuracyStats `json:"models"`
	Workload map[string]obs.WorkloadStats `json:"workload,omitempty"`
}

// errorResponse is the uniform error envelope every handler returns:
// {"error":{"code","message","retry_after_ms"}}. Code is a stable
// machine-readable slug; RetryAfterMS mirrors the Retry-After header on
// backpressure and failover responses so clients need not parse headers.
type errorResponse struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// ----------------------------------------------------------------------------
// Handlers

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "models": s.registry.Len()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Requests:      s.requests.Load(),
		Errors:        s.errors.Load(),
		Swaps:         s.swaps.Load(),
		Build:         obs.ReadBuildInfo(s.started),
		Cache:         s.cache.Stats(),
		Models:        s.modelInfos(true),
	}
	if s.updater != nil {
		resp.Ingest = s.updater.UpdaterStats()
	}
	if s.tracer != nil {
		ts := s.tracer.Stats()
		resp.Trace = &ts
	}
	if ks := infer.KernelStats(); len(ks) > 0 {
		total := uint64(0)
		for _, k := range ks {
			total += k.Calls
		}
		if total > 0 {
			resp.Kernels = ks
		}
	}
	if s.drift != nil {
		if ds := s.drift.Stats(); len(ds) > 0 {
			resp.Drift = ds
		}
	}
	if s.shadow != nil {
		ss := s.shadow.Stats()
		resp.Shadow = &ss
		if wl := s.shadow.Workload(); wl != nil {
			if ws := wl.Stats(); len(ws) > 0 {
				resp.Workload = ws
			}
		}
	}
	if s.cluster != nil {
		resp.Cluster = s.cluster.ClusterStats()
	}
	if s.router != nil {
		rs := s.router.Stats()
		resp.Router = &rs
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBuildInfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, obs.ReadBuildInfo(s.started))
}

// parseLimit reads ?limit=N (positive integer). ok is false — and a
// 400 has been written — when the parameter is present but invalid.
func parseLimit(w http.ResponseWriter, r *http.Request, def int) (limit int, ok bool) {
	q := r.URL.Query().Get("limit")
	if q == "" {
		return def, true
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 1 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", q))
		return 0, false
	}
	return n, true
}

// handleTraces serves the tracer's recent and slowest spans.
// ?limit=N caps both lists (default 50 recent, all slow).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit, ok := parseLimit(w, r, 50)
	if !ok {
		return
	}
	slow := s.tracer.Slow()
	if r.URL.Query().Get("limit") != "" && limit < len(slow) {
		slow = slow[:limit]
	}
	writeJSON(w, http.StatusOK, tracesResponse{
		Stats:  s.tracer.Stats(),
		Recent: s.tracer.Recent(limit),
		Slow:   slow,
	})
}

// handleAccuracy serves the shadow scorer's live-accuracy picture:
// sampler counters, per-model q-error quantiles with threshold-bucket
// and partition breakdowns, the retained worst-N requests, and the
// workload-shift detectors. ?limit=N caps each model's worst list
// (default all retained).
func (s *Server) handleAccuracy(w http.ResponseWriter, r *http.Request) {
	limit, ok := parseLimit(w, r, 0)
	if !ok {
		return
	}
	// Models before the sampler: a sample's oracle method and sampled
	// count are bumped before it is scored, so the sampler read second
	// covers every sample the models show.
	resp := accuracyResponse{Models: s.shadow.Accuracy().Stats(limit)}
	resp.Sampler = s.shadow.Stats()
	if wl := s.shadow.Workload(); wl != nil {
		if ws := wl.Stats(); len(ws) > 0 {
			resp.Workload = ws
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleListModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"models": s.modelInfos(false)})
}

func newModelInfo(m *Model) modelInfo {
	mi := modelInfo{
		Name:       m.Name,
		Kind:       modelcodec.Kind(m.Est),
		Estimator:  m.Est.Name(),
		Dim:        m.Est.Dim(),
		TMax:       m.Est.TMax(),
		Source:     m.Source,
		Generation: m.Generation,
		LoadedAt:   m.LoadedAt,
	}
	if p, ok := m.Est.(estimator.PartitionCounter); ok {
		mi.Partitions = p.K()
	}
	return mi
}

func (s *Server) modelInfos(withBatcher bool) []modelInfo {
	models := s.registry.List()
	out := make([]modelInfo, 0, len(models))
	for _, m := range models {
		mi := newModelInfo(m)
		if s.router != nil {
			mi.Router = s.router.Assignment(m.Name)
		}
		if withBatcher {
			bs := m.Batcher().Stats()
			mi.Batcher = &bs
			if ps, ok := m.Est.(estimator.PlanStatser); ok {
				st := ps.PlanStats()
				mi.Plans = &st
			}
		}
		out = append(out, mi)
	}
	return out
}

func (s *Server) handleLoadModel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req loadModelRequest
	if err := decodeRequest(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Path == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing \"path\""))
		return
	}
	// LoadFile dispatches kind-tagged containers — any servable
	// estimator kind — and sniffs legacy untagged .gob files, so old
	// and new model files both hot-swap in. A model that cannot promise
	// consistency fails here (inconsistent_kind) and is never published.
	est, err := modelcodec.LoadFile(req.Path)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("load %s: %w", req.Path, err))
		return
	}
	m, err := s.registry.Publish(name, est, req.Path)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, newModelInfo(m))
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	sb := s.beginSpan("/v1/estimate", r)
	req := getEstimateBody()
	defer req.release()
	if err := req.decode(r, false); err != nil {
		sb.stage(obs.StageDecode)
		writeError(w, http.StatusBadRequest, err)
		s.endSpan(sb, http.StatusBadRequest)
		return
	}
	q := req.row(0)
	m, status, err := s.lookup(req.model, q)
	sb.stage(obs.StageDecode) // body read + validation + model lookup
	if err != nil {
		writeError(w, status, err)
		s.endSpan(sb, status)
		return
	}
	sb.setModel(m.Name)
	var key string
	if s.cache.Enabled() {
		key = s.cache.Key(m, q, req.t)
		if v, ok := s.cache.Get(key); ok {
			sb.stage(obs.StageCache)
			sb.setCached(true)
			s.offerShadow(r, m, 0, q, req.t, v)
			status := writeJSON(w, http.StatusOK, estimateResponse{Model: m.Name, Estimate: v, T: req.t, Cached: true})
			sb.stage(obs.StageEncode)
			s.endSpan(sb, status)
			return
		}
	}
	sb.stage(obs.StageCache)
	v, bt, err := m.Batcher().SubmitTimed(r.Context(), q, req.t)
	// The Batcher timed the estimate itself; copy it and resync the
	// span clock past the submit call.
	sb.setStage(obs.StageExecute, bt.Execute)
	sb.markNow()
	if errors.Is(err, ErrBatcherClosed) {
		// The model was hot-swapped or removed between lookup and
		// submit; our handle's estimator is still valid, so answer
		// inline rather than surfacing the swap to the client.
		v, err = m.Est.Estimate(q, req.t), nil
		sb.stage(obs.StageExecute)
	}
	if err != nil {
		status := http.StatusServiceUnavailable
		if errors.Is(err, r.Context().Err()) && r.Context().Err() != nil {
			status = 499 // client closed request
		}
		writeError(w, status, err)
		s.endSpan(sb, status)
		return
	}
	if s.cache.Enabled() {
		s.cache.Put(key, v)
	}
	sb.stage(obs.StageCache)
	s.offerShadow(r, m, 0, q, req.t, v)
	status = writeJSON(w, http.StatusOK, estimateResponse{Model: m.Name, Estimate: v, T: req.t})
	sb.stage(obs.StageEncode)
	s.endSpan(sb, status)
}

func (s *Server) handleEstimateBatch(w http.ResponseWriter, r *http.Request) {
	sb := s.beginSpan("/v1/estimate/batch", r)
	fail := func(status int, err error) {
		sb.stage(obs.StageDecode)
		writeError(w, status, err)
		s.endSpan(sb, status)
	}
	req := getEstimateBody()
	defer req.release()
	if err := req.decode(r, true); err != nil {
		fail(http.StatusBadRequest, err)
		return
	}
	if req.n == 0 {
		fail(http.StatusBadRequest, errors.New("empty \"queries\""))
		return
	}
	ts := req.ts
	switch {
	case req.hasT && len(ts) > 0:
		fail(http.StatusBadRequest, errors.New("provide \"t\" or \"ts\", not both"))
		return
	case req.hasT:
		for range req.n {
			ts = append(ts, req.t)
		}
		req.ts = ts
	case len(ts) != req.n:
		fail(http.StatusBadRequest,
			fmt.Errorf("%d queries but %d thresholds", req.n, len(ts)))
		return
	}
	m, status, err := s.lookup(req.model, req.row(0))
	if err != nil {
		fail(status, err)
		return
	}
	sb.setModel(m.Name)
	sb.setBatchSize(req.n)
	if req.ragged >= 0 {
		fail(http.StatusBadRequest,
			fmt.Errorf("query %d has dim %d, model %q expects %d", req.ragged, req.raggedDim, m.Name, m.Est.Dim()))
		return
	}
	sb.stage(obs.StageDecode)
	// The rows were decoded straight into the batch: run the tensor pass
	// on them directly.
	est := m.Est.EstimateBatch(tensor.FromSlice(req.n, req.dim, req.rows), ts)
	sb.stage(obs.StageExecute)
	if s.shadow.Enabled() {
		// Each query in the batch gets its own sampling decision, salted
		// by its index so one traced request doesn't sample all-or-none.
		for i := range req.n {
			s.offerShadow(r, m, uint64(i+1), req.row(i), ts[i], est[i])
		}
	}
	status = writeJSON(w, http.StatusOK, estimateBatchResponse{Model: m.Name, Estimates: est})
	sb.stage(obs.StageEncode)
	s.endSpan(sb, status)
}

func (s *Server) handleUpdateModel(w http.ResponseWriter, r *http.Request) {
	sb := s.beginSpan("/v1/models/{name}/update", r)
	fail := func(status int, err error) {
		writeError(w, status, err)
		s.endSpan(sb, status)
	}
	name := r.PathValue("name")
	sb.setModel(name)
	var req updateModelRequest
	if err := decodeRequest(r, &req); err != nil {
		sb.stage(obs.StageDecode)
		fail(http.StatusBadRequest, err)
		return
	}
	if len(req.Insert)+len(req.Delete) == 0 {
		sb.stage(obs.StageDecode)
		fail(http.StatusBadRequest, errors.New("empty update: provide \"insert\" and/or \"delete\""))
		return
	}
	if _, ok := s.registry.Get(name); !ok {
		sb.stage(obs.StageDecode)
		fail(http.StatusNotFound, fmt.Errorf("unknown model %q", name))
		return
	}
	sb.stage(obs.StageDecode)
	if s.updater == nil {
		fail(http.StatusConflict, ErrNotUpdatable)
		return
	}
	// Vector validation happens in the updater against its attached
	// database — the authoritative dimensionality — not the registry
	// model, which an operator may have hot-swapped independently.
	ack, err := s.updater.Enqueue(name, req.Insert, req.Delete)
	// Enqueue covers WAL append + queue admission: the update route's
	// execute stage.
	sb.stage(obs.StageExecute)
	switch {
	case errors.Is(err, ErrInvalidUpdate):
		fail(http.StatusBadRequest, err)
		return
	case errors.Is(err, ErrUpdateQueueFull):
		retryAfter(w)
		fail(http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrNotUpdatable):
		fail(http.StatusConflict, err)
		return
	case errors.Is(err, ErrNotLeader), errors.Is(err, ErrReplicationTimeout):
		// Leadership moved under us, or follower acks timed out: the
		// client retries (the batch is unacknowledged either way).
		retryAfter(w)
		fail(http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrUpdaterClosed):
		fail(http.StatusServiceUnavailable, err)
		return
	case err != nil:
		fail(http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusAccepted, updateModelResponse{Model: name, Seq: ack.Seq, QueueDepth: ack.QueueDepth})
	sb.stage(obs.StageEncode)
	s.endSpan(sb, http.StatusAccepted)
}

// handleMetrics renders the Prometheus text exposition: request counters,
// per-route latency histograms, cache effectiveness, per-model request
// counters, and (when an updater is attached) ingest queue gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)
	p.Value("selestd_uptime_seconds", "Seconds since the server started.", "gauge",
		time.Since(s.started).Seconds())
	p.Value("selestd_http_requests_total", "HTTP requests accepted.", "counter",
		float64(s.requests.Load()))
	p.Value("selestd_http_errors_total", "HTTP requests answered 4xx/5xx.", "counter",
		float64(s.errors.Load()))
	p.Value("selestd_registry_swaps_total", "Model hot-swaps (replacing publishes).", "counter",
		float64(s.swaps.Load()))

	routes := make([]string, 0, len(s.latency))
	for route := range s.latency {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	for _, route := range routes {
		p.Histogram("selestd_http_request_duration_seconds", "Request latency by route.",
			s.latency[route].Snapshot(), "route", route)
	}

	cs := s.cache.Stats()
	p.Value("selestd_cache_hits_total", "Estimate cache hits.", "counter", float64(cs.Hits))
	p.Value("selestd_cache_misses_total", "Estimate cache misses.", "counter", float64(cs.Misses))
	p.Value("selestd_cache_evictions_total", "Estimate cache evictions.", "counter", float64(cs.Evictions))
	p.Value("selestd_cache_size", "Cached estimates.", "gauge", float64(cs.Size))
	p.Value("selestd_cache_capacity", "Estimate cache capacity.", "gauge", float64(cs.Capacity))
	ratio := 0.0
	if total := cs.Hits + cs.Misses; total > 0 {
		ratio = float64(cs.Hits) / float64(total)
	}
	p.Value("selestd_cache_hit_ratio", "Cache hits / lookups since start.", "gauge", ratio)

	for _, m := range s.registry.List() {
		p.Value("selestd_model_generation", "Registry generation of the published model.", "gauge",
			float64(m.Generation), "model", m.Name)
		p.Value("selestd_batcher_requests_total", "Single estimates submitted to the model's Batcher.",
			"counter", float64(m.Batcher().Stats().Requests), "model", m.Name)
		if ps, ok := m.Est.(estimator.PlanStatser); ok {
			st := ps.PlanStats()
			p.Value("selestd_plan_checkouts_total", "Compiled-plan checkouts from the model's pools.",
				"counter", float64(st.Checkouts), "model", m.Name)
			p.Value("selestd_plan_rows_total", "Rows pushed through compiled plans (requested, not batch-class capacity).",
				"counter", float64(st.Rows), "model", m.Name)
			p.Value("selestd_plan_pool_misses_total", "Plan checkouts that missed the resident fast path.",
				"counter", float64(st.Misses), "model", m.Name)
			p.Value("selestd_plan_compiles_total", "Forward-pass compilations (lazy, per batch-size class).",
				"counter", float64(st.Compiles), "model", m.Name)
			p.Value("selestd_plan_drops_total", "Plan-pool invalidations (training, hot-swap).",
				"counter", float64(st.Drops), "model", m.Name)
		}
	}

	if s.updater != nil {
		stats := s.updater.UpdaterStats()
		names := make([]string, 0, len(stats))
		for name := range stats {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			us := stats[name]
			p.Value("selestd_ingest_queue_depth", "Pending update batches.", "gauge",
				float64(us.QueueDepth), "model", name)
			p.Value("selestd_ingest_queue_capacity", "Update queue capacity.", "gauge",
				float64(us.QueueCapacity), "model", name)
			p.Value("selestd_ingest_lag", "Journal sequences not yet applied.", "gauge",
				float64(us.Lag), "model", name)
			p.Value("selestd_ingest_batches_applied_total", "Update batches applied to the database.",
				"counter", float64(us.BatchesApplied), "model", name)
			p.Value("selestd_ingest_inserted_vecs_total", "Vectors inserted.", "counter",
				float64(us.InsertedVecs), "model", name)
			p.Value("selestd_ingest_deleted_vecs_total", "Vectors deleted.", "counter",
				float64(us.DeletedVecs), "model", name)
			p.Value("selestd_ingest_skipped_total", "Retrain cycles absorbed by the delta_U check.",
				"counter", float64(us.Skipped), "model", name)
			p.Value("selestd_ingest_retrained_total", "Retrain cycles that hot-swapped a shadow model.",
				"counter", float64(us.Retrained), "model", name)
			p.Value("selestd_ingest_last_mae_before", "Validation MAE before the last cycle.", "gauge",
				us.LastMAEBefore, "model", name)
			p.Value("selestd_ingest_last_mae_after", "Validation MAE after the last cycle.", "gauge",
				us.LastMAEAfter, "model", name)
			p.Value("selestd_ingest_retrain_advised", "1 when live workload-shift detection advises retraining.",
				"gauge", boolGauge(us.RetrainAdvised), "model", name)
			if us.Durable {
				p.Value("selestd_ingest_journaled_batches_total", "Batches appended to the write-ahead log.",
					"counter", float64(us.JournaledBatches), "model", name)
				p.Value("selestd_ingest_journal_syncs_total", "Fsyncs the write-ahead log performed.",
					"counter", float64(us.JournalSyncs), "model", name)
				p.Value("selestd_ingest_replayed_batches", "Journal entries replayed at boot.",
					"gauge", float64(us.ReplayedBatches), "model", name)
				p.Value("selestd_ingest_journal_bytes", "Write-ahead log size.",
					"gauge", float64(us.JournalBytes), "model", name)
				p.Value("selestd_ingest_snapshot_seq", "Applied sequence of the last durable snapshot.",
					"gauge", float64(us.SnapshotSeq), "model", name)
				p.Value("selestd_ingest_journal_compactions_total", "WAL compactions after snapshots.",
					"counter", float64(us.Compactions), "model", name)
				p.Value("selestd_ingest_journal_errors_total", "Failed snapshot/compaction attempts.",
					"counter", float64(us.JournalErrors), "model", name)
			}
		}
	}

	p.Value("selestd_kernel_timing_enabled", "1 when per-kernel plan timing is on.", "gauge",
		boolGauge(infer.KernelTimingEnabled()))
	for _, k := range infer.KernelStats() {
		p.Value("selestd_kernel_seconds_total", "Plan-execution time attributed to one forward kernel.",
			"counter", float64(k.Nanos)/1e9, "kernel", k.Kernel)
		p.Value("selestd_kernel_calls_total", "Forward-kernel invocations during plan execution.",
			"counter", float64(k.Calls), "kernel", k.Kernel)
	}

	if s.tracer != nil {
		s.tracer.WriteMetrics(p)
	}
	if s.drift != nil {
		s.drift.WriteMetrics(p)
	}
	if s.shadow != nil {
		s.shadow.WriteMetrics(p)
	}
	if s.cluster != nil {
		s.cluster.WriteMetrics(p)
	}
	if s.router != nil {
		s.router.WriteMetrics(p)
	}
	p.Flush()
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// offerShadow taps one answered estimate into the shadow scorer: a
// nil-check when sampling is off, a hash + non-blocking enqueue when
// on. salt distinguishes queries within a batch request (0 for single
// estimates).
func (s *Server) offerShadow(r *http.Request, m *Model, salt uint64, q []float64, t, v float64) {
	if !s.shadow.Enabled() {
		return
	}
	id, _ := obs.TraceIDFrom(r.Context())
	s.shadow.Offer(m.Name, id, salt, q, t, m.Est.TMax(), v)
}

// lookup resolves the model and validates the query shape, returning an
// HTTP status on failure.
func (s *Server) lookup(name string, query []float64) (*Model, int, error) {
	if name == "" {
		name = "default"
	}
	m, ok := s.registry.Get(name)
	if !ok && s.router != nil && s.router.Routes(name) {
		// Virtual names resolve through the workload router; a direct
		// registry hit above keeps the routed path off concrete names.
		if len(query) == 0 {
			return nil, http.StatusBadRequest, errors.New("empty \"query\"")
		}
		rm, err := s.router.Route(name, len(query))
		if err != nil {
			return nil, http.StatusNotFound, err
		}
		m, ok = rm, true
	}
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("unknown model %q", name)
	}
	if len(query) == 0 {
		return nil, http.StatusBadRequest, errors.New("empty \"query\"")
	}
	if len(query) != m.Est.Dim() {
		return nil, http.StatusBadRequest,
			fmt.Errorf("query has dim %d, model %q expects %d", len(query), m.Name, m.Est.Dim())
	}
	return m, 0, nil
}

// ----------------------------------------------------------------------------
// JSON plumbing

// writeJSON answers status with v encoded as JSON and returns the status
// it wrote. v is encoded before anything is written, so a value that does
// not encode (a non-finite estimate, say) answers 500 instead of a 200
// with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) int {
	body, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encode response: %w", err))
		return http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
	_, _ = io.WriteString(w, "\n")
	return status
}

// writeError renders err in the error envelope. Throttle and failover
// paths stamp Retry-After (see retryAfter) before calling it; the
// envelope copies the hint so the header and body always agree.
func writeError(w http.ResponseWriter, status int, err error) {
	body := errorBody{Code: errorCode(status, err), Message: err.Error()}
	if ra := w.Header().Get("Retry-After"); ra != "" {
		if secs, perr := strconv.Atoi(ra); perr == nil {
			body.RetryAfterMS = int64(secs) * 1000
		}
	}
	writeJSON(w, status, errorResponse{Error: body})
}

// errorCode maps an error and its HTTP status to the envelope's stable
// code slug. Sentinel errors take precedence over the status mapping so
// proxied responses keep their meaning.
func errorCode(status int, err error) string {
	switch {
	case errors.Is(err, ErrNotLeader):
		return "not_leader"
	case errors.Is(err, ErrReplicationTimeout):
		return "replication_timeout"
	case errors.Is(err, ErrUpdateQueueFull):
		return "backpressure"
	case errors.Is(err, ErrNotUpdatable):
		return "not_updatable"
	case errors.Is(err, ErrInvalidUpdate):
		return "invalid_update"
	case errors.Is(err, ErrUpdaterClosed):
		return "shutting_down"
	case errors.Is(err, modelcodec.ErrInconsistentKind):
		return "inconsistent_kind"
	}
	switch status {
	case http.StatusBadRequest:
		return "invalid_argument"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusConflict:
		return "conflict"
	case http.StatusTooManyRequests:
		return "backpressure"
	case 499:
		return "client_closed_request"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusBadGateway:
		return "bad_gateway"
	}
	if status >= 500 {
		return "internal"
	}
	return "error"
}
