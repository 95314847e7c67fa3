package serve

import (
	"net/http"
	"sync"
	"time"

	"selnet/internal/obs"
)

// spanBuilder accumulates one request's span as the handler crosses
// stage boundaries. Builders are pooled so tracing adds no per-request
// heap allocation; mark-based accounting means each boundary costs one
// time.Now.
type spanBuilder struct {
	span obs.Span
	mark time.Time
}

var spanPool = sync.Pool{New: func() any { return new(spanBuilder) }}

// beginSpan starts a span for a traced route, or returns nil when
// tracing is off — every spanBuilder method is nil-safe so handlers
// stay unconditional.
func (s *Server) beginSpan(route string, r *http.Request) *spanBuilder {
	if s.tracer == nil {
		return nil
	}
	sb := spanPool.Get().(*spanBuilder)
	id, _ := obs.TraceIDFrom(r.Context())
	now := time.Now()
	sb.span = obs.Span{TraceID: id, Route: route, Start: now}
	sb.mark = now
	return sb
}

// stage attributes the time since the last boundary to st and advances
// the mark. Stages hit more than once (e.g. cache lookup and fill)
// accumulate.
func (sb *spanBuilder) stage(st obs.Stage) {
	if sb == nil {
		return
	}
	now := time.Now()
	sb.span.Stages[st] += now.Sub(sb.mark)
	sb.mark = now
}

// markNow resets the boundary clock without attributing the elapsed
// time — used after an interval whose stages were measured elsewhere
// (the Batcher times the estimate itself).
func (sb *spanBuilder) markNow() {
	if sb == nil {
		return
	}
	sb.mark = time.Now()
}

// setStage overwrites one stage with an externally measured duration.
func (sb *spanBuilder) setStage(st obs.Stage, d time.Duration) {
	if sb == nil {
		return
	}
	sb.span.Stages[st] = d
}

// setModel records the resolved model name.
func (sb *spanBuilder) setModel(name string) {
	if sb != nil {
		sb.span.Model = name
	}
}

// setCached flags a cache hit.
func (sb *spanBuilder) setCached(c bool) {
	if sb != nil {
		sb.span.Cached = c
	}
}

// setBatchSize records the number of queries in a batch request.
func (sb *spanBuilder) setBatchSize(n int) {
	if sb != nil {
		sb.span.BatchSize = n
	}
}

// end finishes the span with the response status, hands it to the
// tracer, and recycles the builder. The builder must not be used
// afterwards.
func (s *Server) endSpan(sb *spanBuilder, status int) {
	if sb == nil {
		return
	}
	sb.span.Total = time.Since(sb.span.Start)
	sb.span.Status = status
	s.tracer.Record(sb.span)
	spanPool.Put(sb)
}
