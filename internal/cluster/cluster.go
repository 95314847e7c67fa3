package cluster

import (
	"fmt"
	"log/slog"
	"maps"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"selnet/internal/ingest"
	"selnet/internal/obs"
	"selnet/internal/serve"
)

// Config assembles a Node.
type Config struct {
	// Self is this node's base URL as peers reach it (must appear in
	// Peers).
	Self string
	// Peers is the static membership list — every node's base URL,
	// including Self, identical on every node so placement agrees.
	Peers []string
	// Replicas is the replication factor R: each model lives on R
	// distinct nodes (clamped to the cluster size; default 2).
	Replicas int
	// Models names every model in the cluster (all nodes list all
	// models; placement decides which ones this node hosts).
	Models []string
	// Pipe is the local ingest pipeline; hosted models must be attached
	// to it before Start.
	Pipe *ingest.Pipeline

	// Heartbeat is the peer-probe interval (default 250ms); FailAfter
	// is the leader silence that triggers an election (default 6x the
	// heartbeat).
	Heartbeat time.Duration
	FailAfter time.Duration

	// AckFollowers is the number of follower journal acknowledgements an
	// update needs before the leader acknowledges it to the client
	// (clamped to R-1; 0 = asynchronous replication). AckTimeout bounds
	// the wait (default 5s).
	AckFollowers int
	AckTimeout   time.Duration

	// PullBatch caps entries per WAL chunk (default 64); PullWait is the
	// follower long-poll window when the leader has nothing new
	// (default 1s).
	PullBatch int
	PullWait  time.Duration

	// Client overrides the intra-cluster HTTP client (tests inject short
	// timeouts). The default tolerates PullWait-length long-polls.
	Client *http.Client
	// Logger receives cluster lifecycle events (elections, demotions,
	// replication stalls); nil discards them.
	Logger *slog.Logger
}

// DefaultConfig returns the replication settings selestd starts from:
// the defaults that zero fields of a Config take in NewNode.
func DefaultConfig() Config {
	return Config{Replicas: 2, Heartbeat: 250 * time.Millisecond, AckTimeout: 5 * time.Second}
}

// modelState is one model's replication state on this node. All fields
// are guarded by Node.mu.
type modelState struct {
	name     string
	replicas []string // placement order; replicas[0] is the home node
	hosted   bool     // Self ∈ replicas

	leader     bool   // this node currently leads
	term       uint64 // current leadership term
	maxTerm    uint64 // highest term ever observed (election floor)
	leaderURL  string // last known leader (may be stale during failover)
	leaderSeen time.Time

	// followerAck tracks, on the leader, the highest sequence each
	// follower has journaled — learned implicitly from WAL-pull cursors:
	// a follower asking from=N+1 has durably journaled through N. It
	// lists every other replica from the promotion on, at 0 until heard.
	followerAck map[string]uint64
	// leaderLast is, on a follower, the leader's last assigned sequence
	// from the most recent WAL chunk — the basis of the lag gauge.
	leaderLast uint64
	// diverged latches when the local journal holds entries that
	// conflict with the leader's history (a deposed leader's
	// unreplicated suffix, or a pull cursor ahead of the leader's log).
	// A diverged replica stops replicating and must be reseeded.
	diverged bool
	// promotions and demotions count the elections this node won and
	// the leaderships it ceded, for /metrics.
	promotions, demotions uint64
	// rr round-robins fan-out reads across the replica set.
	rr uint64
}

// Node implements serve.ClusterRouter over a static peer group: it
// places models with the consistent-hash ring, leads or follows each
// hosted model's replica group, streams the WAL leader→followers, and
// routes client requests to whichever node should answer them.
type Node struct {
	cfg    Config
	pipe   *ingest.Pipeline
	client *http.Client // WAL pulls: tolerates PullWait-length long-polls
	probe  *http.Client // state probes: must fail fast so elections aren't stalled
	logger *slog.Logger

	mu      sync.Mutex
	ackCond *sync.Cond
	models  map[string]*modelState
	// pulls, pullErrors and entries count this node's WAL pulls as a
	// follower, across every hosted model, for /metrics.
	pulls, pullErrors, entries uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewNode validates cfg, computes this node's placement, and returns a
// stopped node; Start launches the heartbeat and replication loops.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: missing self URL")
	}
	found := false
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: self %q not in peer list %v", cfg.Self, cfg.Peers)
	}
	if cfg.Pipe == nil {
		return nil, fmt.Errorf("cluster: missing ingest pipeline")
	}
	d := DefaultConfig()
	if cfg.Replicas <= 0 {
		cfg.Replicas = d.Replicas
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = d.Heartbeat
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 6 * cfg.Heartbeat
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = d.AckTimeout
	}
	if cfg.PullBatch <= 0 {
		cfg.PullBatch = 64
	}
	if cfg.PullWait <= 0 {
		cfg.PullWait = time.Second
	}
	if cfg.AckFollowers > cfg.Replicas-1 {
		cfg.AckFollowers = cfg.Replicas - 1
	}
	if cfg.AckFollowers < 0 {
		cfg.AckFollowers = 0
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	client, probe := cfg.Client, cfg.Client
	if client == nil {
		client = &http.Client{Timeout: cfg.PullWait + 10*time.Second}
		// Probes must fail well inside the failover window: probePeers
		// waits for every in-flight probe, so a hung (not refusing) peer
		// stalls each heartbeat round by the probe timeout. At FailAfter
		// that would double leader-silence detection for every model;
		// a couple of heartbeats is plenty for a healthy state fetch.
		probeTimeout := 2 * cfg.Heartbeat
		if limit := cfg.FailAfter / 2; probeTimeout > limit {
			probeTimeout = limit
		}
		probe = &http.Client{Timeout: probeTimeout}
	}
	n := &Node{
		cfg:    cfg,
		pipe:   cfg.Pipe,
		client: client,
		probe:  probe,
		logger: cfg.Logger,
		models: make(map[string]*modelState, len(cfg.Models)),
		stop:   make(chan struct{}),
	}
	n.ackCond = sync.NewCond(&n.mu)
	r := newRing(cfg.Peers)
	for _, name := range cfg.Models {
		reps := r.replicas(name, cfg.Replicas)
		ms := &modelState{name: name, replicas: reps, followerAck: make(map[string]uint64)}
		for _, rep := range reps {
			ms.hosted = ms.hosted || rep == cfg.Self
		}
		n.models[name] = ms
	}
	return n, nil
}

// Hosted reports the models placed on this node, in sorted order. The
// daemon uses it to attach only local replicas to the pipeline.
func (n *Node) Hosted() []string {
	out := make([]string, 0, len(n.models))
	for name, ms := range n.models {
		if ms.hosted {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Start probes the peer group once (synchronously, so the node boots
// with a leadership picture instead of electing itself blindly), then
// launches the heartbeat loop and one replication pull loop per hosted
// model.
func (n *Node) Start() {
	n.bootstrap()
	n.wg.Add(1)
	go n.heartbeatLoop()
	for _, name := range n.hostedNames() {
		n.wg.Add(1)
		go n.pullLoop(name)
	}
}

func (n *Node) hostedNames() []string { return n.Hosted() }

// bootstrap resolves initial leadership for every hosted model: adopt
// any peer already claiming the lead; otherwise the placement home
// (replicas[0]) takes term 1, and followers of an unreachable home wait
// out FailAfter before electing (handled by the heartbeat loop, seeded
// by leaderSeen = now).
func (n *Node) bootstrap() {
	states := n.probePeers()
	now := time.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, ms := range n.models {
		if !ms.hosted {
			continue
		}
		n.adoptClaimsLocked(ms, states, now)
		if ms.leaderURL == "" && len(ms.replicas) > 0 && ms.replicas[0] == n.cfg.Self {
			n.promoteLocked(ms, ms.maxTerm+1, "bootstrap")
		}
		if ms.leaderSeen.IsZero() {
			ms.leaderSeen = now // grace: don't elect before FailAfter of silence
		}
	}
}

// heartbeatLoop probes peers every Heartbeat and reconciles leadership:
// adopting higher-term claims, resolving same-term splits by placement
// order, and electing a successor for hosted models whose leader has
// been silent past FailAfter.
func (n *Node) heartbeatLoop() {
	defer n.wg.Done()
	tick := time.NewTicker(n.cfg.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-tick.C:
		}
		states := n.probePeers()
		now := time.Now()
		n.mu.Lock()
		for _, ms := range n.models {
			if !ms.hosted {
				continue
			}
			n.adoptClaimsLocked(ms, states, now)
			if !ms.leader && now.Sub(ms.leaderSeen) > n.cfg.FailAfter {
				n.electLocked(ms, states)
			}
		}
		n.mu.Unlock()
	}
}

// probePeers fetches /v1/cluster/state from every peer except self.
// Unreachable peers are simply absent from the result.
func (n *Node) probePeers() map[string]*PeerStatus {
	type res struct {
		peer string
		st   *PeerStatus
	}
	ch := make(chan res, len(n.cfg.Peers))
	probes := 0
	for _, peer := range n.cfg.Peers {
		if peer == n.cfg.Self {
			continue
		}
		probes++
		go func(peer string) {
			st, err := n.fetchState(peer)
			if err != nil {
				ch <- res{peer, nil}
				return
			}
			ch <- res{peer, st}
		}(peer)
	}
	out := make(map[string]*PeerStatus, probes)
	for i := 0; i < probes; i++ {
		r := <-ch
		if r.st != nil {
			out[r.peer] = r.st
		}
	}
	return out
}

// adoptClaimsLocked folds peer leadership claims for ms into local
// state: a higher term always wins (demoting us if we led); an equal
// term from a peer earlier in placement order wins a split; any
// accepted claim refreshes leaderSeen. On the leader it also refreshes
// follower ack telemetry.
func (n *Node) adoptClaimsLocked(ms *modelState, states map[string]*PeerStatus, now time.Time) {
	for _, peer := range ms.replicas {
		st, ok := states[peer]
		if !ok {
			continue
		}
		pm, ok := st.Models[ms.name]
		if !ok || !pm.Leader {
			continue
		}
		if pm.Term > ms.maxTerm {
			ms.maxTerm = pm.Term
		}
		switch {
		case pm.Term > ms.term:
			n.followLocked(ms, peer, pm.Term, now, "higher term")
		case pm.Term == ms.term && ms.leader && peer != n.cfg.Self && n.placementRank(ms, peer) < n.placementRank(ms, n.cfg.Self):
			// Same-term split (two nodes elected in the same partition
			// window): the replica earlier in placement order keeps the
			// lead, everyone else steps down deterministically.
			n.followLocked(ms, peer, pm.Term, now, "same-term split")
		case pm.Term == ms.term && !ms.leader && peer == ms.leaderURL:
			ms.leaderSeen = now
		case pm.Term == ms.term && !ms.leader && ms.leaderURL == "":
			ms.leaderURL = peer
			ms.leaderSeen = now
		}
	}
	if ms.leader {
		ms.leaderSeen = now
	}
}

func (n *Node) placementRank(ms *modelState, peer string) int {
	for i, rep := range ms.replicas {
		if rep == peer {
			return i
		}
	}
	return len(ms.replicas)
}

// electLocked promotes the most caught-up live replica after leader
// silence. Candidates are this node plus every replica that answered
// the probe round; the winner has the highest journaled sequence, ties
// broken by applied sequence, then placement order. Only a self-win
// changes local state — a peer win just means we expect its claim on a
// future heartbeat.
func (n *Node) electLocked(ms *modelState, states map[string]*PeerStatus) {
	selfLast, selfApplied, ok := n.pipe.Position(ms.name)
	if !ok {
		return
	}
	bestPeer, bestLast, bestApplied := n.cfg.Self, selfLast, selfApplied
	for _, peer := range ms.replicas {
		if peer == n.cfg.Self {
			continue
		}
		st, ok := states[peer]
		if !ok {
			continue // silent peer: not a candidate
		}
		pm, ok := st.Models[ms.name]
		if !ok {
			continue
		}
		if pm.LastSeq > bestLast ||
			(pm.LastSeq == bestLast && pm.AppliedSeq > bestApplied) ||
			(pm.LastSeq == bestLast && pm.AppliedSeq == bestApplied &&
				n.placementRank(ms, peer) < n.placementRank(ms, bestPeer)) {
			bestPeer, bestLast, bestApplied = peer, pm.LastSeq, pm.AppliedSeq
		}
	}
	if bestPeer != n.cfg.Self {
		// The better-positioned replica should win; give the failover
		// clock a fresh window for its claim to arrive.
		ms.leaderSeen = time.Now()
		return
	}
	n.promoteLocked(ms, ms.maxTerm+1, "leader silent")
	// Only a promotion won by an election is a failover; the placement
	// home's bootstrap claim is not.
	ms.promotions++
}

// promoteLocked makes this node the model's leader at term. Every other
// replica starts at ack 0, "not heard from this term": it counts toward
// no semi-sync ack and raises no deposed-leader maxAck, yet has a lag
// series even while it is down.
func (n *Node) promoteLocked(ms *modelState, term uint64, why string) {
	ms.leader = true
	ms.term = term
	if term > ms.maxTerm {
		ms.maxTerm = term
	}
	ms.leaderURL = n.cfg.Self
	ms.leaderSeen = time.Now()
	ms.followerAck = make(map[string]uint64, len(ms.replicas))
	for _, r := range ms.replicas {
		if r != n.cfg.Self {
			ms.followerAck[r] = 0
		}
	}
	n.logger.Info("cluster: promoted to leader",
		slog.String("model", ms.name), slog.Uint64("term", term), slog.String("reason", why))
	n.ackCond.Broadcast()
}

func (n *Node) followLocked(ms *modelState, leader string, term uint64, now time.Time, why string) {
	if ms.leader {
		n.logger.Warn("cluster: stepping down",
			slog.String("model", ms.name), slog.String("new_leader", leader),
			slog.Uint64("term", term), slog.String("reason", why))
		ms.demotions++
		// Entries this node journaled as leader that no follower ever
		// pulled cannot be on the successor: it will reassign those
		// sequence numbers to different batches, and the pull loop's
		// idempotence skips (journal.appendAt and the WAL tailer both
		// treat lower sequences as already replicated) would silently
		// keep the conflicting suffix. Flag the replica instead.
		var maxAck uint64
		for _, s := range ms.followerAck {
			if s > maxAck {
				maxAck = s
			}
		}
		if last, _, ok := n.pipe.Position(ms.name); ok && last > maxAck {
			n.markDivergedLocked(ms, fmt.Sprintf(
				"deposed (term %d -> %d) holding unreplicated suffix %d..%d", ms.term, term, maxAck+1, last))
		}
	}
	ms.leader = false
	ms.term = term
	if term > ms.maxTerm {
		ms.maxTerm = term
	}
	ms.leaderURL = leader
	ms.leaderSeen = now
	// Wake Enqueue waiters so they fail fast with ErrNotLeader instead
	// of riding out the ack timeout.
	n.ackCond.Broadcast()
}

// markDivergedLocked latches the divergence flag: the local journal
// holds entries that the authoritative leader history does not, so
// continuing to replicate would silently skip the conflict and leave
// this replica serving a permanently different database. The replica
// stops pulling and must be reseeded (today: wipe the model's journal
// directory and restart the node so it re-syncs from the leader;
// automatic snapshot shipping is a roadmap item).
func (n *Node) markDivergedLocked(ms *modelState, why string) {
	if ms.diverged {
		return
	}
	ms.diverged = true
	n.logger.Error("cluster: replica diverged from leader history; needs reseed",
		slog.String("model", ms.name), slog.String("reason", why))
}

// ----------------------------------------------------------------------------
// serve.Updater: the write path

// Enqueue journals one batch locally and, when semi-synchronous
// replication is configured, holds the acknowledgement until
// AckFollowers followers have journaled it (learned from their WAL-pull
// cursors). A non-leader refuses with serve.ErrNotLeader so the server
// proxies to the real leader.
func (n *Node) Enqueue(model string, insert, del [][]float64) (serve.UpdateAck, error) {
	n.mu.Lock()
	ms, ok := n.models[model]
	if !ok || !ms.hosted {
		n.mu.Unlock()
		return serve.UpdateAck{}, fmt.Errorf("%w: model %q not placed on this node", serve.ErrNotUpdatable, model)
	}
	if !ms.leader {
		n.mu.Unlock()
		return serve.UpdateAck{}, fmt.Errorf("%w: %q is led by %s", serve.ErrNotLeader, model, ms.leaderURL)
	}
	need := n.cfg.AckFollowers
	if live := len(ms.replicas) - 1; need > live {
		need = live
	}
	n.mu.Unlock()

	ack, err := n.pipe.Enqueue(model, insert, del)
	if err != nil {
		return ack, err
	}
	// Re-check leadership: a demotion between the check above and the
	// journal append means this node minted (and fsynced) a sequence
	// number the new leader will assign to a different batch. The entry
	// is already durable locally, so the journal is suspect from here on
	// — flag it and refuse the ack so the client retries at the real
	// leader.
	n.mu.Lock()
	if !ms.leader {
		n.markDivergedLocked(ms, fmt.Sprintf("leadership lost while journaling seq %d", ack.Seq))
		leader := ms.leaderURL
		n.mu.Unlock()
		return serve.UpdateAck{}, fmt.Errorf("%w: lost leadership of %q while journaling seq %d (now led by %q); replica needs reseed",
			serve.ErrNotLeader, model, ack.Seq, leader)
	}
	n.mu.Unlock()
	if need == 0 {
		return ack, nil
	}
	if !n.waitAcked(ms, ack.Seq, need) {
		return serve.UpdateAck{}, fmt.Errorf("%w: seq %d not replicated to %d follower(s) within %s",
			serve.ErrReplicationTimeout, ack.Seq, need, n.cfg.AckTimeout)
	}
	return ack, nil
}

// waitAcked blocks until `need` followers have journaled seq, the ack
// timeout passes, or leadership is lost.
func (n *Node) waitAcked(ms *modelState, seq uint64, need int) bool {
	deadline := time.Now().Add(n.cfg.AckTimeout)
	timer := time.AfterFunc(n.cfg.AckTimeout, func() {
		n.mu.Lock()
		n.ackCond.Broadcast()
		n.mu.Unlock()
	})
	defer timer.Stop()
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		acked := 0
		for _, s := range ms.followerAck {
			if s >= seq {
				acked++
			}
		}
		if acked >= need {
			return true
		}
		if !ms.leader || time.Now().After(deadline) {
			return false
		}
		n.ackCond.Wait()
	}
}

// UpdaterStats delegates to the local pipeline (the stats of the models
// this node hosts).
func (n *Node) UpdaterStats() map[string]serve.UpdaterStats {
	return n.pipe.UpdaterStats()
}

// ----------------------------------------------------------------------------
// serve.ClusterRouter: the read path and surfaces

// RouteRead picks where an estimate should run: locally when this node
// hosts a replica, otherwise round-robin across the model's replica
// set. Unknown models stay local (the handler 404s).
func (n *Node) RouteRead(model string) (targets []string, local bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ms, ok := n.models[model]
	if !ok {
		return nil, true
	}
	if ms.hosted {
		return nil, true
	}
	start := ms.rr
	ms.rr++
	out := make([]string, 0, len(ms.replicas))
	for i := range ms.replicas {
		out = append(out, ms.replicas[(start+uint64(i))%uint64(len(ms.replicas))])
	}
	return out, false
}

// RouteWrite picks where an update should run: locally when this node
// leads the model, at the known leader otherwise. During failover the
// target may be empty (no leader known yet); a non-hosting node falls
// back to the placement home, whose replica group re-routes once more
// if leadership moved.
func (n *Node) RouteWrite(model string) (target string, local bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ms, ok := n.models[model]
	if !ok {
		return "", true
	}
	if ms.leader {
		return "", true
	}
	if ms.hosted {
		return ms.leaderURL, false // may be "" during failover: 503 + Retry-After
	}
	if ms.leaderURL != "" {
		return ms.leaderURL, false
	}
	return ms.replicas[0], false
}

// ShardMapEntry is one model's placement in GET /v1/cluster.
type ShardMapEntry struct {
	Model    string   `json:"model"`
	Replicas []string `json:"replicas"`
	Leader   string   `json:"leader,omitempty"`
	Term     uint64   `json:"term"`
}

// ShardMapResponse is the GET /v1/cluster document.
type ShardMapResponse struct {
	Self     string          `json:"self"`
	Peers    []string        `json:"peers"`
	Replicas int             `json:"replicas"`
	Models   []ShardMapEntry `json:"models"`
}

// ShardMap serves client-side routing: every model's replica set and
// last known leader.
func (n *Node) ShardMap() any {
	n.mu.Lock()
	defer n.mu.Unlock()
	resp := ShardMapResponse{
		Self:     n.cfg.Self,
		Peers:    n.cfg.Peers,
		Replicas: n.cfg.Replicas,
		Models:   make([]ShardMapEntry, 0, len(n.models)),
	}
	for _, name := range n.sortedModelsLocked() {
		ms := n.models[name]
		resp.Models = append(resp.Models, ShardMapEntry{
			Model: name, Replicas: ms.replicas, Leader: ms.leaderURL, Term: ms.term,
		})
	}
	return resp
}

// ModelClusterStats is one hosted model's replication picture in /stats.
type ModelClusterStats struct {
	Replicas  []string `json:"replicas"`
	Leader    bool     `json:"leader"`
	LeaderURL string   `json:"leader_url,omitempty"`
	Term      uint64   `json:"term"`
	// LastSeq/AppliedSeq are the local journal position; Lag is how far
	// this replica trails the leader's last assigned sequence (0 on the
	// leader).
	LastSeq    uint64 `json:"last_seq"`
	AppliedSeq uint64 `json:"applied_seq"`
	Lag        uint64 `json:"lag"`
	// Diverged reports a replica whose journal conflicts with the
	// leader's history; it has stopped replicating and needs a reseed.
	Diverged bool `json:"diverged,omitempty"`
	// FollowerAck is the leader's view of each follower's journaled
	// sequence (empty on followers).
	FollowerAck map[string]uint64 `json:"follower_ack,omitempty"`
}

// ClusterStatsResponse is the "cluster" section of /stats.
type ClusterStatsResponse struct {
	Self   string                       `json:"self"`
	Models map[string]ModelClusterStats `json:"models"`
}

// ClusterStats reports per-model leadership and replication lag for
// /stats.
func (n *Node) ClusterStats() any {
	n.mu.Lock()
	defer n.mu.Unlock()
	resp := ClusterStatsResponse{Self: n.cfg.Self, Models: make(map[string]ModelClusterStats, len(n.models))}
	for name, ms := range n.models {
		if st, ok := n.modelStatsLocked(ms); ok {
			resp.Models[name] = st
		}
	}
	return resp
}

// modelStatsLocked is one model's replication picture as this node holds
// it now, the single source of its /stats section and its /metrics
// series. ok is false for a model not hosted here or not attached to
// the pipeline.
func (n *Node) modelStatsLocked(ms *modelState) (ModelClusterStats, bool) {
	if !ms.hosted {
		return ModelClusterStats{}, false
	}
	last, applied, ok := n.pipe.Position(ms.name)
	if !ok {
		return ModelClusterStats{}, false
	}
	st := ModelClusterStats{
		Replicas:   ms.replicas,
		Leader:     ms.leader,
		LeaderURL:  ms.leaderURL,
		Term:       ms.term,
		LastSeq:    last,
		AppliedSeq: applied,
		Diverged:   ms.diverged,
	}
	if ms.leader {
		if len(ms.followerAck) > 0 {
			st.FollowerAck = maps.Clone(ms.followerAck)
		}
	} else {
		st.Lag = behind(ms.leaderLast, last)
	}
	return st, true
}

// behind is how many sequences seq trails tip by (0 when it does not).
func behind(tip, seq uint64) uint64 {
	if tip > seq {
		return tip - seq
	}
	return 0
}

// WriteMetrics renders the cluster metric families into /metrics from
// the node's state at scrape time, through the same per-model picture
// as /stats. Lag series follow the current role: a follower exports its
// own lag (peer = self, the /stats lag), a leader one series per
// follower it lists under follower_ack (its last sequence minus that
// follower's journaled one).
func (n *Node) WriteMetrics(p *obs.PromWriter) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, name := range n.sortedModelsLocked() {
		ms := n.models[name]
		st, ok := n.modelStatsLocked(ms)
		if !ok {
			continue
		}
		p.Value("selestd_cluster_is_leader", "1 when this node leads the model's replica group.",
			"gauge", oneIf(st.Leader), "model", name)
		p.Value("selestd_cluster_term", "Leadership term of the model's replica group.",
			"gauge", float64(st.Term), "model", name)
		p.Value("selestd_cluster_failovers_total", "Leader promotions won by this node.",
			"counter", float64(ms.promotions), "model", name)
		p.Value("selestd_cluster_demotions_total", "Leaderships this node ceded to a higher-term claim.",
			"counter", float64(ms.demotions), "model", name)
		p.Value("selestd_replication_diverged", "1 when the local replica's journal conflicts with the leader's history and needs a reseed.",
			"gauge", oneIf(st.Diverged), "model", name)
		const lagHelp = "Leader sequence minus the peer's replicated sequence."
		if !st.Leader {
			p.Value("selestd_replication_lag", lagHelp, "gauge", float64(st.Lag), "model", name, "peer", n.cfg.Self)
		}
		for _, peer := range slices.Sorted(maps.Keys(st.FollowerAck)) {
			p.Value("selestd_replication_lag", lagHelp,
				"gauge", float64(behind(st.LastSeq, st.FollowerAck[peer])), "model", name, "peer", peer)
		}
	}
	p.Value("selestd_replication_pulls_total", "WAL pull round-trips made as a follower.",
		"counter", float64(n.pulls))
	p.Value("selestd_replication_pull_errors_total", "WAL pulls that failed.",
		"counter", float64(n.pullErrors))
	p.Value("selestd_replication_entries_total", "WAL entries replicated into the local journal.",
		"counter", float64(n.entries))
}

func oneIf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (n *Node) sortedModelsLocked() []string {
	names := make([]string, 0, len(n.models))
	for name := range n.models {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Close stops the heartbeat and replication loops. The pipeline is
// closed by its owner afterwards.
func (n *Node) Close() {
	select {
	case <-n.stop:
		return
	default:
	}
	close(n.stop)
	n.mu.Lock()
	n.ackCond.Broadcast()
	n.mu.Unlock()
	n.wg.Wait()
}
