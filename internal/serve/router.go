package serve

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"selnet/internal/estimator"
	"selnet/internal/metrics"
	"selnet/internal/modelcodec"
	"selnet/internal/obs"
	"selnet/internal/tensor"
)

// RouterConfig selects a workload-routing policy for requests that do
// not name a concrete published model.
type RouterConfig struct {
	// Mode is the routing policy: "auto" (pick a backend per query from
	// database size, dimensionality and the VC sampling bound),
	// "ensemble" (fan each query across every dimension-compatible
	// model and blend in log space), or an explicit estimator-kind slug
	// ("selnet", "selnet-part", "kde", "lsh", "gbm", "dln", "umnn" — the
	// kinds the model codec serves) pinning the virtual names to that
	// kind. Empty disables routing.
	Mode string
}

// "auto" prefers a SelNet-class model over sampling above
// routeDimThreshold query dimensions: in high dimension the sampling
// estimators need prohibitively many probes for the same guarantee.
// Below it, vcEpsilon and vcDelta parameterize the VC sampling bound
// m* = (d + 1 + ln(1/delta)) / (2 epsilon^2): a sampling-backed
// estimator whose data size is within m* is already an
// (epsilon, delta)-approximation, so "auto" serves from it directly.
const (
	routeDimThreshold = 8
	vcEpsilon         = 0.05
	vcDelta           = 0.05
)

// ValidRouterMode reports whether mode names a routing policy: "auto",
// "ensemble", or the slug of a kind the model codec serves — every one
// of them consistent, so no routing policy can break monotonicity in t.
func ValidRouterMode(mode string) bool {
	return mode == "auto" || mode == "ensemble" || modelcodec.IsKind(mode)
}

// Router resolves the virtual model names ("default" when no concrete
// model holds that name, and "auto") to a published model — or, in
// ensemble mode, to a virtual model fanning across members. Resolution
// is cached per registry-table version and per query dimension, so the
// steady-state route of an estimate request is two atomic loads and a
// map probe: no allocation, no lock.
type Router struct {
	cfg RouterConfig
	reg *Registry

	mu       sync.Mutex // serializes cache rebuilds and counter inserts
	cache    atomic.Pointer[routeCache]
	counters atomic.Pointer[map[decisionKey]*atomic.Uint64]
}

// routeCache is an immutable resolution snapshot: valid only while the
// registry's table pointer is unchanged, extended copy-on-write as new
// query dimensions appear.
type routeCache struct {
	table *map[string]*Model
	byDim map[int]*routeEntry
}

// routeEntry is one cached decision: the chosen model (possibly a
// virtual ensemble), the backend label for metrics, and the policy
// reason for /stats. err is set when no compatible model exists.
type routeEntry struct {
	m       *Model
	backend string
	reason  string
	err     error
}

type decisionKey struct {
	model   string // requested (virtual) name
	backend string // chosen backend: model name or "ensemble"
}

// NewRouter builds a router over reg; cfg.Mode must already be
// validated.
func NewRouter(reg *Registry, cfg RouterConfig) *Router {
	rt := &Router{cfg: cfg, reg: reg}
	empty := map[decisionKey]*atomic.Uint64{}
	rt.counters.Store(&empty)
	return rt
}

// Routes reports whether name is a virtual name this router resolves.
// The server consults it only after a registry miss, so a concrete
// model published under "default" always wins.
func (rt *Router) Routes(name string) bool {
	return name == "default" || name == "auto"
}

// SampleBound returns the VC sampling bound m* for queries of the given
// dimensionality: the sample size beyond which a sampling-backed
// estimator stops being preferable under (vcEpsilon, vcDelta).
func (rt *Router) SampleBound(dim int) int {
	return metrics.VCSampleSize(vcEpsilon, vcDelta, dim+1)
}

// Route resolves the virtual name for a query of the given
// dimensionality and records the decision. The returned model remains
// valid even if members are hot-swapped afterwards, exactly like a
// registry Get.
func (rt *Router) Route(name string, dim int) (*Model, error) {
	e := rt.entry(dim)
	if e.err != nil {
		return nil, e.err
	}
	rt.record(name, e.backend)
	return e.m, nil
}

// entry returns the cached decision for dim, computing and caching it
// on first sight of a (table version, dim) pair.
func (rt *Router) entry(dim int) *routeEntry {
	table := rt.reg.table.Load()
	c := rt.cache.Load()
	if c != nil && c.table == table {
		if e, ok := c.byDim[dim]; ok {
			return e
		}
	}
	return rt.resolveSlow(table, dim)
}

// resolveSlow computes the decision for dim under the writer lock and
// publishes an extended cache. The registry may publish concurrently;
// the double-check against the current table pointer keeps a stale
// snapshot from being re-published over a fresher one.
func (rt *Router) resolveSlow(table *map[string]*Model, dim int) *routeEntry {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if cur := rt.reg.table.Load(); cur != table {
		table = cur
	}
	c := rt.cache.Load()
	if c == nil || c.table != table {
		c = &routeCache{table: table, byDim: map[int]*routeEntry{}}
	} else if e, ok := c.byDim[dim]; ok {
		return e
	}
	e := rt.decide(*table, dim)
	next := &routeCache{table: table, byDim: make(map[int]*routeEntry, len(c.byDim)+1)}
	for d, old := range c.byDim {
		next.byDim[d] = old
	}
	next.byDim[dim] = e
	rt.cache.Store(next)
	return e
}

// decide applies the routing policy to one (table, dim) pair.
func (rt *Router) decide(table map[string]*Model, dim int) *routeEntry {
	candidates := make([]*Model, 0, len(table))
	for _, m := range table {
		if m.Est.Dim() == dim {
			candidates = append(candidates, m)
		}
	}
	if len(candidates) == 0 {
		return &routeEntry{err: fmt.Errorf("router: no model accepts dim-%d queries", dim)}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].Name < candidates[j].Name })

	switch mode := rt.cfg.Mode; {
	case mode == "ensemble":
		if len(candidates) == 1 {
			m := candidates[0]
			return &routeEntry{m: m, backend: m.Name, reason: "ensemble of one: direct"}
		}
		return &routeEntry{
			m:       newEnsembleModel(candidates),
			backend: "ensemble",
			reason:  fmt.Sprintf("ensemble over %d dim-%d models", len(candidates), dim),
		}
	case mode == "auto":
		return rt.decideAuto(candidates, dim)
	default: // explicit kind
		for _, m := range candidates {
			if kindMatches(mode, modelcodec.Kind(m.Est)) {
				return &routeEntry{m: m, backend: m.Name,
					reason: fmt.Sprintf("pinned kind %q", mode)}
			}
		}
		return &routeEntry{err: fmt.Errorf("router: no dim-%d model of kind %q", dim, mode)}
	}
}

// decideAuto picks a backend from dimensionality and the VC sampling
// bound: high-dimensional queries go to a SelNet-class model, and
// low-dimensional ones to the smallest sampling-backed estimator whose
// data size is within the (epsilon, delta) bound — sampling that little
// data is already an epsilon-approximation, so the learned model buys
// nothing. Anything else falls through to SelNet, then to the first
// candidate by name.
func (rt *Router) decideAuto(candidates []*Model, dim int) *routeEntry {
	var selnetClass, sampling *Model
	samplingSize := 0
	for _, m := range candidates {
		switch kind := modelcodec.Kind(m.Est); {
		case strings.HasPrefix(kind, "selnet"):
			if selnetClass == nil {
				selnetClass = m
			}
		default:
			ds, ok := m.Est.(estimator.DataSizer)
			if ok && (sampling == nil || ds.DataSize() < samplingSize) {
				sampling, samplingSize = m, ds.DataSize()
			}
		}
	}
	bound := rt.SampleBound(dim)
	switch {
	case dim > routeDimThreshold && selnetClass != nil:
		return &routeEntry{m: selnetClass, backend: selnetClass.Name,
			reason: fmt.Sprintf("dim %d > %d: selnet-class", dim, routeDimThreshold)}
	case dim <= routeDimThreshold && sampling != nil && samplingSize <= bound:
		return &routeEntry{m: sampling, backend: sampling.Name,
			reason: fmt.Sprintf("data size %d <= vc bound %d: sampling-class", samplingSize, bound)}
	case selnetClass != nil:
		return &routeEntry{m: selnetClass, backend: selnetClass.Name,
			reason: fmt.Sprintf("data size exceeds vc bound %d: selnet-class", bound)}
	default:
		m := candidates[0]
		return &routeEntry{m: m, backend: m.Name, reason: "fallback: first compatible model"}
	}
}

// kindMatches reports whether a model kind satisfies the pinned mode;
// "selnet" covers the partitioned variant too.
func kindMatches(mode, kind string) bool {
	return mode == kind || (mode == "selnet" && kind == "selnet-part")
}

// record bumps the {model, backend} decision counter; copy-on-write on
// first sight of a pair, a single atomic add afterwards.
func (rt *Router) record(model, backend string) {
	key := decisionKey{model: model, backend: backend}
	if c, ok := (*rt.counters.Load())[key]; ok {
		c.Add(1)
		return
	}
	rt.mu.Lock()
	cur := *rt.counters.Load()
	c, ok := cur[key]
	if !ok {
		next := make(map[decisionKey]*atomic.Uint64, len(cur)+1)
		for k, v := range cur {
			next[k] = v
		}
		c = new(atomic.Uint64)
		next[key] = c
		rt.counters.Store(&next)
	}
	rt.mu.Unlock()
	c.Add(1)
}

// RouterDecision is one {requested name, chosen backend} counter.
type RouterDecision struct {
	Model   string `json:"model"`
	Backend string `json:"backend"`
	Count   uint64 `json:"count"`
}

// RouterAssignment is one cached routing decision, per query dimension.
type RouterAssignment struct {
	Dim     int    `json:"dim"`
	Backend string `json:"backend,omitempty"`
	Reason  string `json:"reason,omitempty"`
	Error   string `json:"error,omitempty"`
}

// RouterStats is the /stats "router" section.
type RouterStats struct {
	Mode         string             `json:"mode"`
	DimThreshold int                `json:"dim_threshold"`
	Epsilon      float64            `json:"epsilon"`
	Delta        float64            `json:"delta"`
	Assignments  []RouterAssignment `json:"assignments,omitempty"`
	Decisions    []RouterDecision   `json:"decisions,omitempty"`
}

// Stats snapshots the routing table and decision counters.
func (rt *Router) Stats() RouterStats {
	st := RouterStats{
		Mode:         rt.cfg.Mode,
		DimThreshold: routeDimThreshold,
		Epsilon:      vcEpsilon,
		Delta:        vcDelta,
	}
	if c := rt.cache.Load(); c != nil && c.table == rt.reg.table.Load() {
		for dim, e := range c.byDim {
			a := RouterAssignment{Dim: dim, Backend: e.backend, Reason: e.reason}
			if e.err != nil {
				a.Error = e.err.Error()
			}
			st.Assignments = append(st.Assignments, a)
		}
		sort.Slice(st.Assignments, func(i, j int) bool { return st.Assignments[i].Dim < st.Assignments[j].Dim })
	}
	for key, c := range *rt.counters.Load() {
		st.Decisions = append(st.Decisions, RouterDecision{Model: key.model, Backend: key.backend, Count: c.Load()})
	}
	sort.Slice(st.Decisions, func(i, j int) bool {
		if st.Decisions[i].Model != st.Decisions[j].Model {
			return st.Decisions[i].Model < st.Decisions[j].Model
		}
		return st.Decisions[i].Backend < st.Decisions[j].Backend
	})
	return st
}

// Assignment returns the backends name currently routes to, as "reason"
// strings keyed by the cached dims, for the /v1/models listing. Empty
// when the model is not a routing target.
func (rt *Router) Assignment(model string) []string {
	c := rt.cache.Load()
	if c == nil || c.table != rt.reg.table.Load() {
		return nil
	}
	var out []string
	dims := make([]int, 0, len(c.byDim))
	for dim := range c.byDim {
		dims = append(dims, dim)
	}
	sort.Ints(dims)
	for _, dim := range dims {
		e := c.byDim[dim]
		if e.err != nil {
			continue
		}
		if e.backend == model {
			out = append(out, fmt.Sprintf("dim=%d", dim))
		} else if e.backend == "ensemble" {
			if ens, ok := e.m.Est.(*ensembleEstimator); ok {
				for _, n := range ens.names {
					if n == model {
						out = append(out, fmt.Sprintf("dim=%d (ensemble)", dim))
						break
					}
				}
			}
		}
	}
	return out
}

// WriteMetrics renders the router's Prometheus families.
func (rt *Router) WriteMetrics(p *obs.PromWriter) {
	st := rt.Stats()
	p.Value("selestd_router_enabled", "1 when a workload router is attached.", "gauge", 1)
	for _, d := range st.Decisions {
		p.Value("selestd_router_decisions_total", "Routing decisions by requested name and chosen backend.",
			"counter", float64(d.Count), "model", d.Model, "backend", d.Backend)
	}
}

// ----------------------------------------------------------------------------
// Ensemble

// logBlendEps floors member estimates away from zero so the log-space
// blend is finite; it is subtracted back out, so a unanimous zero still
// blends to zero.
const logBlendEps = 1e-9

// ensembleEstimator fans a query across every member and blends the
// answers with a geometric mean in log space — selectivities span
// orders of magnitude, so averaging logs (rather than values) keeps one
// large member from drowning out the rest, mirroring how the training
// objective treats relative error.
//
// The blend is monotone in t by construction. In the daemon every member
// entered through the model codec, which admits only consistent kinds,
// or is a SelNet retrained in process, so each member's estimate is
// non-decreasing in t. log, the mean with fixed equal weights, exp and
// the clamps at zero are all non-decreasing, so their composition is too.
type ensembleEstimator struct {
	members []estimator.Estimator
	names   []string
	dim     int
	tmax    float64
}

func newEnsembleModel(members []*Model) *Model {
	ens := &ensembleEstimator{dim: members[0].Est.Dim()}
	h := fnv.New64a()
	for _, m := range members {
		ens.members = append(ens.members, m.Est)
		ens.names = append(ens.names, m.Name)
		ens.tmax = math.Max(ens.tmax, m.Est.TMax())
		fmt.Fprintf(h, "%s@%d;", m.Name, m.Generation)
	}
	return &Model{
		Name: "ensemble",
		Est:  ens,
		// The generation folds every member's name and generation, so
		// hot-swapping any member changes the cache-key space.
		Generation: h.Sum64(),
		Source:     "router",
		LoadedAt:   time.Now(),
		// The server submits every single estimate through its model's
		// Batcher, so the virtual model carries one like a published
		// model. Nothing retires it, so it is never closed.
		batcher: NewBatcher(ens, BatcherConfig{}),
	}
}

func (e *ensembleEstimator) Estimate(x []float64, t float64) float64 {
	sum := 0.0
	for _, m := range e.members {
		sum += math.Log(math.Max(m.Estimate(x, t), 0) + logBlendEps)
	}
	return math.Max(math.Exp(sum/float64(len(e.members)))-logBlendEps, 0)
}

func (e *ensembleEstimator) EstimateBatch(x *tensor.Dense, ts []float64) []float64 {
	acc := make([]float64, len(ts))
	for _, m := range e.members {
		for i, v := range m.EstimateBatch(x, ts) {
			acc[i] += math.Log(math.Max(v, 0) + logBlendEps)
		}
	}
	for i := range acc {
		acc[i] = math.Max(math.Exp(acc[i]/float64(len(e.members)))-logBlendEps, 0)
	}
	return acc
}

func (e *ensembleEstimator) Dim() int      { return e.dim }
func (e *ensembleEstimator) TMax() float64 { return e.tmax }
func (e *ensembleEstimator) Name() string  { return "Ensemble" }

var _ estimator.Estimator = (*ensembleEstimator)(nil)
