package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Histogram is a fixed-bucket, lock-free histogram: observations index
// into per-bucket atomic counters, so the serving hot path records a
// latency with two atomic adds and a CAS loop for the running sum. It
// snapshots into the Prometheus exposition format served by /metrics.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts  []atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the observation sum
	count   atomic.Uint64
}

// NewHistogram builds a histogram over the given ascending upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must be ascending")
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// LatencyBuckets are the default request-duration bounds (seconds),
// log-spaced from 5µs — fine enough to resolve the ~15µs plan-path hot
// path — up to 2.5s.
func LatencyBuckets() []float64 {
	return []float64{5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5}
}

// StageBuckets are the default bounds for per-stage latency histograms
// (seconds). Stages are slices of a request, so the range starts below
// LatencyBuckets — a 15µs request decomposes into single-digit-µs
// stages — and tops out at 1s.
func StageBuckets() []float64 {
	return []float64{1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 1}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, upd) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram's counters.
// Counts are per bucket (not cumulative); the last entry is the +Inf
// bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Snapshot copies the counters. Concurrent observations may land between
// bucket reads; each line item remains internally consistent, which is
// all Prometheus scrapes need.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// ----------------------------------------------------------------------------
// Prometheus text exposition (format version 0.0.4); hand-rolled so the
// daemon needs no client library.

// PromWriter accumulates metric families and writes each one as a
// single group — # HELP / # TYPE, then every sample — in first-seen
// order when Flush ends the pass. Callers may interleave families
// freely (per-model loops emit one sample of many families per model);
// the text format requires each family's samples to be contiguous.
type PromWriter struct {
	w     io.Writer
	fams  map[string]*strings.Builder
	order []*strings.Builder
}

// NewPromWriter wraps w for one exposition pass.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, fams: make(map[string]*strings.Builder)}
}

// family returns name's buffer, opening it with its header on first use.
func (p *PromWriter) family(name, help, typ string) *strings.Builder {
	b, ok := p.fams[name]
	if !ok {
		b = new(strings.Builder)
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		p.fams[name] = b
		p.order = append(p.order, b)
	}
	return b
}

// Value emits one sample; labels come as alternating key, value pairs.
func (p *PromWriter) Value(name, help, typ string, v float64, labels ...string) {
	fmt.Fprintf(p.family(name, help, typ), "%s%s %s\n", name, promLabels(labels), promFloat(v))
}

// Histogram emits the cumulative _bucket series plus _sum and _count.
func (p *PromWriter) Histogram(name, help string, s HistogramSnapshot, labels ...string) {
	b := p.family(name, help, "histogram")
	cum := uint64(0)
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		fmt.Fprintf(b, "%s_bucket%s %d\n", name,
			promLabels(append(append([]string{}, labels...), "le", promFloat(bound))), cum)
	}
	cum += s.Counts[len(s.Bounds)]
	fmt.Fprintf(b, "%s_bucket%s %d\n", name,
		promLabels(append(append([]string{}, labels...), "le", "+Inf")), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, promLabels(labels), promFloat(s.Sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, promLabels(labels), s.Count)
}

// Flush writes every family accumulated so far and ends the pass.
func (p *PromWriter) Flush() error {
	for _, b := range p.order {
		if _, err := io.WriteString(p.w, b.String()); err != nil {
			return err
		}
	}
	p.fams, p.order = make(map[string]*strings.Builder), nil
	return nil
}

// promLabels renders {k="v",...} from alternating pairs ("" when empty).
func promLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteString(`="`)
		b.WriteString(promEscape(pairs[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// promEscape escapes a label value per the exposition format.
func promEscape(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// promFloat formats a float the way Prometheus parsers expect.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
