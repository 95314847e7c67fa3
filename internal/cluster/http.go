package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"selnet/internal/ingest"
)

// The intra-cluster API rides on each node's public listener under
// /v1/cluster/ (the serve layer mounts Handler there):
//
//	GET /v1/cluster/state
//	    this node's term/leadership/journal position for every model it
//	    hosts — the heartbeat probe and the election evidence.
//	GET /v1/cluster/wal/{model}?from=SEQ&max=N&wait_ms=MS&peer=URL
//	    stream WAL entries with sequence >= from, up to max per chunk,
//	    long-polling up to wait_ms when caught up. Only the leader
//	    serves entries (409 otherwise, with its best guess at the
//	    leader); 410 means the WAL was compacted past `from` and the
//	    follower needs a reseed; 416 means `from` is past the leader's
//	    own last sequence — the puller holds a divergent suffix and
//	    needs a reseed. `peer` identifies the puller so the leader can
//	    credit its replication cursor: a follower asking from=N+1 has
//	    durably journaled through N. Credit goes only to replica-set
//	    members and never past the leader's own tip.

// ModelStatus is one model's view in GET /v1/cluster/state.
type ModelStatus struct {
	Leader     bool   `json:"leader"`
	Term       uint64 `json:"term"`
	LeaderURL  string `json:"leader_url,omitempty"`
	LastSeq    uint64 `json:"last_seq"`
	AppliedSeq uint64 `json:"applied_seq"`
}

// PeerStatus is the GET /v1/cluster/state document.
type PeerStatus struct {
	Self   string                 `json:"self"`
	Models map[string]ModelStatus `json:"models"`
}

// WireEntry is one WAL entry on the wire. Float64 vectors survive JSON
// round-trips exactly for the values the WAL itself produced, so the
// follower journals byte-identical batches.
type WireEntry struct {
	Seq    uint64      `json:"seq"`
	At     int64       `json:"at"` // unix nanos
	Insert [][]float64 `json:"insert,omitempty"`
	Delete [][]float64 `json:"delete,omitempty"`
}

// WALChunk is the GET /v1/cluster/wal/{model} response.
type WALChunk struct {
	Model string `json:"model"`
	Term  uint64 `json:"term"`
	// LastSeq is the leader's last assigned sequence at serve time — the
	// follower's lag reference, present even when Entries is empty.
	LastSeq uint64      `json:"last_seq"`
	Entries []WireEntry `json:"entries,omitempty"`
}

type clusterError struct {
	Error  string `json:"error"`
	Leader string `json:"leader,omitempty"`
}

// Handler returns the intra-cluster route table.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cluster/state", n.handleState)
	mux.HandleFunc("GET /v1/cluster/wal/{model}", n.handleWAL)
	return mux
}

func (n *Node) handleState(w http.ResponseWriter, r *http.Request) {
	st := PeerStatus{Self: n.cfg.Self, Models: make(map[string]ModelStatus)}
	n.mu.Lock()
	for name, ms := range n.models {
		if !ms.hosted {
			continue
		}
		last, applied, ok := n.pipe.Position(name)
		if !ok {
			continue
		}
		st.Models[name] = ModelStatus{
			Leader: ms.leader, Term: ms.term, LeaderURL: ms.leaderURL,
			LastSeq: last, AppliedSeq: applied,
		}
	}
	n.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (n *Node) handleWAL(w http.ResponseWriter, r *http.Request) {
	model := r.PathValue("model")
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil || from == 0 {
		writeJSON(w, http.StatusBadRequest, clusterError{Error: fmt.Sprintf("bad from %q", q.Get("from"))})
		return
	}
	max := n.cfg.PullBatch
	if v := q.Get("max"); v != "" {
		if m, err := strconv.Atoi(v); err == nil && m > 0 && m < max {
			max = m
		}
	}
	var wait time.Duration
	if v := q.Get("wait_ms"); v != "" {
		if ms, err := strconv.Atoi(v); err == nil && ms > 0 {
			wait = time.Duration(ms) * time.Millisecond
			if wait > n.cfg.PullWait {
				wait = n.cfg.PullWait
			}
		}
	}

	n.mu.Lock()
	ms, ok := n.models[model]
	if !ok || !ms.hosted {
		n.mu.Unlock()
		writeJSON(w, http.StatusNotFound, clusterError{Error: fmt.Sprintf("model %q not hosted here", model)})
		return
	}
	if !ms.leader {
		leader := ms.leaderURL
		n.mu.Unlock()
		writeJSON(w, http.StatusConflict, clusterError{Error: "not the leader", Leader: leader})
		return
	}
	term := ms.term
	leaderLast, _, havePos := n.pipe.Position(model)
	// A cursor past our own tip means the puller journaled sequences we
	// never assigned — the divergent-suffix state after a failover.
	// Refuse instead of long-polling: serving (or crediting) it would
	// let a forked replica pass as caught up.
	if havePos && from > leaderLast+1 {
		n.mu.Unlock()
		writeJSON(w, http.StatusRequestedRangeNotSatisfiable, clusterError{
			Error: fmt.Sprintf("from %d is past the leader's last sequence %d: puller holds a divergent suffix and needs a reseed", from, leaderLast),
		})
		return
	}
	// The pull cursor is the follower's durability receipt: asking for
	// `from` proves everything below it is journaled there. Only replica
	//-set members earn credit — the endpoint is on the public listener,
	// and the semi-sync ack count must not be satisfiable by arbitrary
	// clients — and the credit is clamped to our own tip so a bogus
	// cursor can never mark a follower as caught up past reality.
	if peer := q.Get("peer"); peer != "" && peer != n.cfg.Self &&
		n.placementRank(ms, peer) < len(ms.replicas) {
		acked := from - 1
		if havePos && acked > leaderLast {
			acked = leaderLast
		}
		if ms.followerAck[peer] < acked {
			ms.followerAck[peer] = acked
		}
		n.ackCond.Broadcast()
	}
	n.mu.Unlock()

	tailer, err := n.pipe.TailWAL(model, from-1)
	if errors.Is(err, ingest.ErrWALCompacted) {
		writeJSON(w, http.StatusGone, clusterError{Error: err.Error()})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, clusterError{Error: err.Error()})
		return
	}
	defer tailer.Close()

	deadline := time.Now().Add(wait)
	var entries []ingest.Entry
	for {
		entries, err = tailer.Next(max)
		if errors.Is(err, ingest.ErrWALCompacted) {
			writeJSON(w, http.StatusGone, clusterError{Error: err.Error()})
			return
		}
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, clusterError{Error: err.Error()})
			return
		}
		if len(entries) > 0 || wait == 0 || time.Now().After(deadline) {
			break
		}
		// Long-poll: the WAL has no readable tail yet; poll at a fraction
		// of the heartbeat so a fresh append ships quickly.
		select {
		case <-n.stop:
			writeJSON(w, http.StatusServiceUnavailable, clusterError{Error: "node shutting down"})
			return
		case <-r.Context().Done():
			return
		case <-time.After(10 * time.Millisecond):
		}
	}

	chunk := WALChunk{Model: model, Term: term, Entries: make([]WireEntry, 0, len(entries))}
	if last, _, ok := n.pipe.Position(model); ok {
		chunk.LastSeq = last
	}
	for _, e := range entries {
		chunk.Entries = append(chunk.Entries, WireEntry{
			Seq: e.Seq, At: e.At.UnixNano(), Insert: e.Insert, Delete: e.Delete,
		})
	}
	writeJSON(w, http.StatusOK, chunk)
}

// ----------------------------------------------------------------------------
// Client side

func (n *Node) fetchState(peer string) (*PeerStatus, error) {
	resp, err := n.probe.Get(peer + "/v1/cluster/state")
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: %s/v1/cluster/state: %s", peer, resp.Status)
	}
	var st PeerStatus
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// errNotLeaderPeer reports a 409 from a WAL pull: the pulled node no
// longer leads. Leader carries its hint (may be empty).
type errNotLeaderPeer struct{ Leader string }

func (e *errNotLeaderPeer) Error() string { return "cluster: peer is not the leader" }

// errCompactedPeer reports a 410: the leader compacted past our cursor
// and streaming cannot resume without a reseed.
var errCompactedPeer = errors.New("cluster: leader compacted past our journal position")

// errDivergedPeer reports a 416: our pull cursor is past the leader's
// own last sequence, so the local journal holds a suffix the
// authoritative history never assigned — the replica has diverged.
var errDivergedPeer = errors.New("cluster: local journal is ahead of the leader's history")

func (n *Node) fetchWAL(leader, model string, from uint64) (*WALChunk, error) {
	u := fmt.Sprintf("%s/v1/cluster/wal/%s?from=%d&max=%d&wait_ms=%d&peer=%s",
		leader, url.PathEscape(model), from, n.cfg.PullBatch,
		n.cfg.PullWait.Milliseconds(), url.QueryEscape(n.cfg.Self))
	resp, err := n.client.Get(u)
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		var ce clusterError
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&ce)
		return nil, &errNotLeaderPeer{Leader: ce.Leader}
	case http.StatusGone:
		return nil, errCompactedPeer
	case http.StatusRequestedRangeNotSatisfiable:
		return nil, errDivergedPeer
	default:
		return nil, fmt.Errorf("cluster: %s wal pull: %s", leader, resp.Status)
	}
	var chunk WALChunk
	if err := json.NewDecoder(io.LimitReader(resp.Body, 256<<20)).Decode(&chunk); err != nil {
		return nil, err
	}
	return &chunk, nil
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
