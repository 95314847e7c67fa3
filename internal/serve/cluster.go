package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"selnet/internal/obs"
)

// Cluster routing lives in internal/cluster, which builds on this
// package; ClusterRouter is the seam between them, exactly like Updater
// is for ingest. The server asks the router where each request belongs
// and proxies the buffered body to the owning node when the answer is
// not "here", carrying the trace ID across the hop so spans line up,
// and a hop-count header so routing mistakes degrade into a local
// answer instead of a forwarding loop.

// ErrNotLeader signals an update enqueued on a replica that does not
// currently lead the model's replica group; the server answers 503 with
// Retry-After so the client (or the proxying node) retries against the
// new leader once failover settles.
var ErrNotLeader = errors.New("serve: not the leader for this model")

// ErrReplicationTimeout signals that a batch was journaled locally but
// the configured number of follower acknowledgements did not arrive in
// time. The batch is durable on the leader and stays queued — the
// client must treat the request as unacknowledged and may retry, the
// same at-least-once contract as a WAL sync failure.
var ErrReplicationTimeout = errors.New("serve: replication ack timeout")

// ForwardedHeader carries the forwarding hop count between cluster
// nodes. Requests above maxForwardHops are always served locally.
const ForwardedHeader = "X-Selest-Forwarded"

// maxForwardHops bounds proxy chains: hop 0 (client) may forward to a
// replica, which may forward a write once more to the leader it knows.
const maxForwardHops = 2

// ClusterRouter is what the server needs from the cluster subsystem.
// Implementations must be safe for concurrent use.
type ClusterRouter interface {
	// RouteRead returns candidate base URLs for an estimate on model, or
	// local=true when this node hosts a replica and should answer itself.
	RouteRead(model string) (targets []string, local bool)
	// RouteWrite returns the base URL of the model's leader, or
	// local=true when this node leads it. An empty target with
	// local=false means no leader is known (failover in progress).
	RouteWrite(model string) (target string, local bool)
	// ShardMap is the client-facing placement document for
	// GET /v1/cluster.
	ShardMap() any
	// ClusterStats is the per-model replication section of /stats.
	ClusterStats() any
	// Handler serves the intra-cluster API (peer state, WAL streaming)
	// mounted under /v1/cluster/.
	Handler() http.Handler
	// WriteMetrics renders the cluster metric families into /metrics.
	WriteMetrics(p *obs.PromWriter)
}

// SetCluster attaches the cluster router: estimate and update requests
// are forwarded to the owning replica or leader, GET /v1/cluster serves
// the shard map, and /stats and /metrics grow replication sections.
// Call before Handler sees traffic.
func (s *Server) SetCluster(c ClusterRouter) { s.cluster = c }

// hopCount reads the forwarding depth of a request (0 = straight from a
// client).
func hopCount(r *http.Request) int {
	h := r.Header.Get(ForwardedHeader)
	if h == "" {
		return 0
	}
	n, err := strconv.Atoi(h)
	if err != nil || n < 0 {
		return maxForwardHops
	}
	return n
}

// retryAfterSecs is the backoff hint, in whole seconds, stamped on
// throttling and failover responses (429, leaderless 503) so clients
// back off deliberately instead of hammering.
const retryAfterSecs = "1"

func retryAfter(w http.ResponseWriter) { w.Header().Set("Retry-After", retryAfterSecs) }

// forward proxies a request (with its already-buffered body) to the
// first reachable target, streaming the response back verbatim. The
// trace ID crosses the hop via X-Trace-Id and the hop count via
// ForwardedHeader. Returns the status written.
func (s *Server) forward(w http.ResponseWriter, r *http.Request, targets []string, body []byte) int {
	hops := strconv.Itoa(hopCount(r) + 1)
	for _, target := range targets {
		if target == "" {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, target+r.URL.RequestURI(), bytes.NewReader(body))
		if err != nil {
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(ForwardedHeader, hops)
		if id, ok := obs.TraceIDFrom(r.Context()); ok {
			req.Header.Set("X-Trace-Id", obs.FormatTraceID(id))
		}
		resp, err := forwardClient.Do(req)
		if err != nil {
			// Dead or unreachable replica: try the next candidate.
			continue
		}
		for _, h := range []string{"Content-Type", "Retry-After"} {
			if v := resp.Header.Get(h); v != "" {
				w.Header().Set(h, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	retryAfter(w)
	writeError(w, http.StatusServiceUnavailable, fmt.Errorf("no replica reachable for this request"))
	return http.StatusServiceUnavailable
}

// forwardClient bounds a forwarded request end to end; estimate
// and update handlers on the remote side answer in milliseconds, so 10s
// only guards against a hung peer.
var forwardClient = &http.Client{Timeout: 10 * time.Second}

// handleClusterMap serves the shard map for client-side routing.
func (s *Server) handleClusterMap(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cluster.ShardMap())
}

// routeRead wraps an estimate handler with cluster routing. Without a
// router — or on an already-forwarded request, which a peer routed here
// deliberately — it is the handler itself, preserving the single-node
// zero-buffer hot path. Otherwise the body is buffered to peek at the
// model name, and requests for models this node doesn't host are
// proxied to a hosting replica.
func (s *Server) routeRead(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cluster == nil || hopCount(r) > 0 {
			h(w, r)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		// Peek only at the model name; the handler re-decodes strictly.
		var peek struct {
			Model string `json:"model"`
		}
		_ = json.Unmarshal(body, &peek)
		model := peek.Model
		if model == "" {
			model = "default"
		}
		targets, local := s.cluster.RouteRead(model)
		if local || len(targets) == 0 {
			// Hosted here (or nowhere better to send it — the handler
			// produces the right 404): answer locally.
			r.Body = io.NopCloser(bytes.NewReader(body))
			h(w, r)
			return
		}
		s.forward(w, r, targets, body)
	}
}

// routeWrite wraps the update handler with leader routing: followers
// and non-hosting nodes proxy the batch to the model's leader. The hop
// budget lets a replica forward once more when leadership moved between
// the client's hop and ours; past that the request lands locally and a
// non-leader answers 503 + Retry-After rather than risking a loop.
func (s *Server) routeWrite(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cluster == nil || hopCount(r) >= maxForwardHops {
			h(w, r)
			return
		}
		model := r.PathValue("name")
		if model == "" {
			model = "default"
		}
		target, local := s.cluster.RouteWrite(model)
		if local {
			h(w, r)
			return
		}
		if target == "" {
			retryAfter(w)
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("no leader for model %q (failover in progress)", model))
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		s.forward(w, r, []string{target}, body)
	}
}
