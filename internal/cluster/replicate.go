package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"time"

	"selnet/internal/ingest"
	"selnet/internal/serve"
)

// pullLoop replicates one hosted model: while this node follows, it
// long-polls the leader's WAL from its own journal position and replays
// each chunk through the ingest pipeline (journal append at the
// replicated sequence, then the normal apply/retrain worker). While
// this node leads, the loop idles — followers pull from us instead.
func (n *Node) pullLoop(model string) {
	defer n.wg.Done()
	for {
		select {
		case <-n.stop:
			return
		default:
		}

		n.mu.Lock()
		ms := n.models[model]
		leading, leader, term, diverged := ms.leader, ms.leaderURL, ms.term, ms.diverged
		n.mu.Unlock()

		if diverged {
			// A diverged replica must not pull: the idempotence skips in
			// journal.appendAt and the WAL tailer would silently drop the
			// leader's conflicting entries and fork the replica further.
			// Idle until an operator reseeds (the flag is latched and
			// exported via /stats and selestd_replication_diverged).
			if !n.sleep(n.cfg.FailAfter) {
				return
			}
			continue
		}
		if leading || leader == "" || leader == n.cfg.Self {
			// Leading, or leaderless during failover: nothing to pull.
			if !n.sleep(n.cfg.Heartbeat) {
				return
			}
			continue
		}

		last, _, ok := n.pipe.Position(model)
		if !ok {
			// Model not attached (shouldn't happen for hosted models).
			if !n.sleep(n.cfg.Heartbeat) {
				return
			}
			continue
		}

		chunk, err := n.fetchWAL(leader, model, last+1)
		if err != nil {
			n.handlePullError(model, leader, err)
			if !n.sleep(n.cfg.Heartbeat) {
				return
			}
			continue
		}

		// Sanity-check the chunk before replaying it. A term older than
		// ours means the serving node is a stale leader (we adopted a
		// newer claim from the heartbeats) — its entries may belong to a
		// superseded history, so drop the chunk and let the heartbeat
		// loop re-resolve where to pull from. A newer term is fine: only
		// leaders serve chunks, so the peer demonstrably leads at
		// chunk.Term — adopt it. And a leader tip behind our own journal
		// means we hold sequences the authoritative history never
		// assigned: that is divergence, not catch-up.
		if chunk.Term < term {
			n.logger.Warn("cluster: dropping WAL chunk from stale-term leader",
				slog.String("model", model), slog.String("leader", leader),
				slog.Uint64("chunk_term", chunk.Term), slog.Uint64("term", term))
			n.mu.Lock()
			if !ms.leader && ms.leaderURL == leader && ms.term > chunk.Term {
				ms.leaderURL = "" // heartbeat re-resolves the real leader
			}
			n.mu.Unlock()
			if !n.sleep(n.cfg.Heartbeat) {
				return
			}
			continue
		}
		if chunk.LastSeq < last {
			n.mu.Lock()
			n.markDivergedLocked(ms, fmt.Sprintf(
				"local journal at seq %d but leader %s (term %d) is at %d", last, leader, chunk.Term, chunk.LastSeq))
			n.mu.Unlock()
			continue
		}
		if chunk.Term > term {
			n.mu.Lock()
			if !ms.leader && chunk.Term > ms.term {
				ms.term = chunk.Term
				if chunk.Term > ms.maxTerm {
					ms.maxTerm = chunk.Term
				}
				ms.leaderURL = leader
				ms.leaderSeen = time.Now()
			}
			n.mu.Unlock()
		}

		entries := make([]ingest.Entry, 0, len(chunk.Entries))
		for _, we := range chunk.Entries {
			entries = append(entries, ingest.Entry{
				Seq: we.Seq, At: time.Unix(0, we.At), Insert: we.Insert, Delete: we.Delete,
			})
		}
		accepted := 0
		if len(entries) > 0 {
			accepted, err = n.pipe.Replicate(model, entries)
		}
		n.countPull(accepted, err != nil)
		if err != nil && !errors.Is(err, serve.ErrUpdateQueueFull) {
			// Queue-full is ordinary backpressure (the worker drains it);
			// anything else — a gap, a dimension mismatch — means this
			// replica has diverged and retrying won't fix it. Log loudly
			// and back off rather than spinning.
			n.logger.Error("cluster: replication replay failed",
				slog.String("model", model), slog.String("leader", leader),
				slog.String("err", err.Error()))
			if !n.sleep(n.cfg.FailAfter) {
				return
			}
			continue
		}
		if err != nil && accepted == 0 {
			// Queue full before the first entry landed: an immediate
			// re-pull would fetch the identical chunk and hammer the
			// leader until the worker drains. Wait a heartbeat instead.
			if !n.sleep(n.cfg.Heartbeat) {
				return
			}
			continue
		}

		n.mu.Lock()
		ms.leaderLast = chunk.LastSeq
		n.mu.Unlock()

		// A full chunk suggests more is waiting: pull again immediately.
		// An empty or partial chunk means we're caught up; the next
		// long-poll blocks server-side until new data arrives, so there
		// is no client-side sleep on the hot path.
	}
}

// handlePullError reacts to a failed WAL pull. A 409 clears the cached
// leader (adopting the peer's hint if it offered one) so the heartbeat
// loop re-resolves leadership; a 410 means the leader compacted past
// our position and this replica needs a reseed — surfaced as a loud
// log until snapshot shipping exists; a 416 means our cursor is ahead
// of the leader's entire log — a divergent suffix, latched via
// markDivergedLocked so the loop stops replicating. Transport errors
// just count: the heartbeat loop notices a dead leader via FailAfter.
func (n *Node) handlePullError(model, leader string, err error) {
	n.countPull(0, true)
	var notLeader *errNotLeaderPeer
	switch {
	case errors.As(err, &notLeader):
		n.mu.Lock()
		ms := n.models[model]
		if !ms.leader && ms.leaderURL == leader {
			ms.leaderURL = notLeader.Leader // may be "": heartbeat re-resolves
		}
		n.mu.Unlock()
	case errors.Is(err, errCompactedPeer):
		n.logger.Error("cluster: leader compacted past our position; replica needs reseed",
			slog.String("model", model), slog.String("leader", leader))
	case errors.Is(err, errDivergedPeer):
		n.mu.Lock()
		n.markDivergedLocked(n.models[model], fmt.Sprintf("leader %s rejected pull: cursor past its history", leader))
		n.mu.Unlock()
	default:
		n.logger.Debug("cluster: wal pull failed",
			slog.String("model", model), slog.String("leader", leader),
			slog.String("err", err.Error()))
	}
}

// countPull records one WAL pull round-trip: entries replicated into
// the local journal, and whether the pull failed.
func (n *Node) countPull(entries int, failed bool) {
	n.mu.Lock()
	n.pulls++
	n.entries += uint64(entries)
	if failed {
		n.pullErrors++
	}
	n.mu.Unlock()
}

// sleep waits d or until shutdown, reporting false on shutdown.
func (n *Node) sleep(d time.Duration) bool {
	select {
	case <-n.stop:
		return false
	case <-time.After(d):
		return true
	}
}
