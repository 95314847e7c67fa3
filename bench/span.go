package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Start and End are nanoseconds since the recorder
// was made; Parent is the index of the span that caused this one (-1
// for none); spans of one replayed request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// recorder keeps spans in memory until the run ends. It is used from
// one goroutine.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name string, parent, req int) int {
	r.spans = append(r.spans, span{Name: name, Parent: parent, Req: req, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) { r.spans[id].End = int64(time.Since(r.t0)) }

// time records fn as one span.
func (r *recorder) time(name string, parent, req int, fn func()) int {
	id := r.begin(name, parent, req)
	fn()
	r.end(id)
	return id
}

// add records a span measured by someone else (the coalescer times its
// own queue, fuse and execute stages), placed at the given offset
// inside its parent.
func (r *recorder) add(name string, parent int, offset, d time.Duration) {
	p := r.spans[parent]
	r.spans = append(r.spans, span{Name: name, Parent: parent, Req: p.Req, Start: p.Start + int64(offset), End: p.Start + int64(offset+d)})
}

// addAt records a root span somebody else timed, by its wall-clock
// start.
func (r *recorder) addAt(name string, req int, at time.Time, d time.Duration) {
	start := int64(at.Sub(r.t0))
	r.spans = append(r.spans, span{Name: name, Parent: -1, Req: req, Start: start, End: start + int64(d)})
}

// durations lists the lengths, in nanoseconds, of the spans named name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes lists, for every span named name, its length minus the
// lengths of its direct children: the time spent in the layer itself.
func (r *recorder) selfTimes(name string) []float64 {
	children := map[int]int64{}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for i, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start-children[i]))
		}
	}
	return out
}

func (r *recorder) write(path string) error {
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
