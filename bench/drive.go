package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"selnet/internal/vecdata"
)

// conn is one keep-alive HTTP connection to the daemon, used by one
// goroutine at a time.
type conn struct {
	client *http.Client
	base   string
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{client: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// post sends body and returns the status and the whole response body.
func (c *conn) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.client.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// sample is one answered request of a closed loop. The body is kept so
// that parsing and checking happen after the window, not between two
// sends.
type sample struct {
	req    *request
	status int
	body   []byte
	lat    time.Duration
}

// closedLoop sends the stream's requests from position next, each after
// the previous answer, until deadline. Latency runs from just before
// the request is written to just after the last byte of the answer is
// read. It stops at the first transport error.
func closedLoop(c *conn, path string, st *stream, next int, deadline time.Time) ([]sample, int, error) {
	var out []sample
	for time.Now().Before(deadline) {
		req := st.at(next)
		next++
		t0 := time.Now()
		status, body, err := c.post(path, req.body)
		lat := time.Since(t0)
		if err != nil {
			return out, next, fmt.Errorf("POST %s: %w", path, err)
		}
		out = append(out, sample{req: req, status: status, body: body, lat: lat})
	}
	return out, next, nil
}

// ----------------------------------------------------------------------------
// Open-loop updates

type step int

const (
	stepSend  step = iota // the next batch is due: send it
	stepPoll              // a visibility poll is due
	stepSleep             // neither: sleep for the returned duration
)

// nextStep is the open-loop connection's scheduler. Batches go out on
// their schedule whatever the daemon does; polls fill the gaps and
// never delay a due batch.
func nextStep(now, due, poll time.Time) (step, time.Duration) {
	switch {
	case !now.Before(due):
		return stepSend, 0
	case !now.Before(poll):
		return stepPoll, 0
	case due.Before(poll):
		return stepSleep, due.Sub(now)
	default:
		return stepSleep, poll.Sub(now)
	}
}

// updateRecord is one update batch's life, every latency counted from
// the moment the batch was due, not from when it was actually sent.
type updateRecord struct {
	due     time.Time
	late    time.Duration // send start - due: how late the generator ran
	ack     time.Duration // 202 received - due
	visible time.Duration // first poll showing applied_seq >= seq - due; 0 while pending
	seq     uint64
}

const pollEvery = 25 * time.Millisecond

// updater is the open-loop connection of update_mixed: it posts batch i
// at start + i*interval and, in the gaps, polls GET /stats to see each
// acknowledged sequence number become applied.
type updater struct {
	c        *conn
	path     string
	batches  []updateBatch
	start    time.Time
	interval time.Duration
	// The ledger only observes polls inside [from, to): the measured
	// window.
	from, to time.Time
	led      *ledger

	recs     []updateRecord
	pollGaps []time.Duration
	rejected int // batches answered anything but 202
}

// run sends every batch due before until, then keeps polling until all
// of them are visible (or drain expires), and returns the first error
// that stops it.
func (u *updater) run(until time.Time, drain time.Duration) error {
	nextPoll := u.start
	var lastPoll time.Time
	pending := 0 // index of the first record not yet visible
	i := 0
	for {
		due := u.start.Add(time.Duration(i) * u.interval)
		sending := i < len(u.batches) && due.Before(until)
		if !sending {
			if pending == len(u.recs) {
				return nil
			}
			if time.Since(until) > drain {
				return fmt.Errorf("update seq %d not applied %s after the last batch", u.recs[pending].seq, drain)
			}
			due = time.Now().Add(time.Hour) // nothing left to send: only poll
		}
		now := time.Now()
		switch st, wait := nextStep(now, due, nextPoll); st {
		case stepSleep:
			time.Sleep(wait)
		case stepSend:
			status, body, err := u.c.post(u.path, u.batches[i].body)
			ack := time.Since(due)
			if err != nil {
				return fmt.Errorf("POST %s: %w", u.path, err)
			}
			rec := updateRecord{due: due, late: now.Sub(due), ack: ack}
			if status != http.StatusAccepted {
				u.rejected++
				rec.visible = -1
			} else {
				var resp struct {
					Seq uint64 `json:"seq"`
				}
				if err := json.Unmarshal(body, &resp); err != nil || resp.Seq == 0 {
					return fmt.Errorf("POST %s: unusable 202 body %.200q", u.path, body)
				}
				rec.seq = resp.Seq
			}
			u.recs = append(u.recs, rec)
			i++
		case stepPoll:
			s, err := fetchStats(u.c.client, u.c.base)
			if err != nil {
				return err
			}
			polled := time.Now()
			if !lastPoll.IsZero() {
				u.pollGaps = append(u.pollGaps, polled.Sub(lastPoll))
			}
			lastPoll = polled
			if !polled.Before(u.from) && polled.Before(u.to) {
				u.led.observe(s)
			}
			applied := uint64(0)
			if in, ok := s.Ingest[u.led.model]; ok {
				applied = in.AppliedSeq
			}
			for pending < len(u.recs) && (u.recs[pending].visible < 0 || u.recs[pending].seq <= applied) {
				if u.recs[pending].visible == 0 {
					u.recs[pending].visible = polled.Sub(u.recs[pending].due)
				}
				pending++
			}
			nextPoll = polled.Add(pollEvery)
		}
	}
}

// applyToMirror replays one batch on the driver's copy of the data, the
// way the daemon's ingest cycle does: inserts appended, deletes matched
// by value.
func applyToMirror(db *vecdata.Database, b *updateBatch) {
	db.Insert(b.insert...)
	var drop []int
	for _, v := range b.del {
		for i, have := range db.Vecs {
			if slices.Equal(have, v) {
				drop = append(drop, i)
				break
			}
		}
	}
	db.Delete(drop...)
}

// ----------------------------------------------------------------------------
// The measured window

// trialStats is one trial's start-up and measured window, reduced.
type trialStats struct {
	SetupS    float64 `json:"setup_s"`
	Seconds   float64 `json:"seconds"`
	Requests  int     `json:"requests"`
	Estimates int     `json:"estimates"` // rows of requests answered 200
	P50us     float64 `json:"latency_p50_us"`
	P95us     float64 `json:"latency_p95_us"`
	P99us     float64 `json:"latency_p99_us"`
	MeanUs    float64 `json:"latency_mean_us"`
	WireUs    float64 `json:"wire_us"` // MeanUs - the daemon's own mean handler time
	PerSecond float64 `json:"estimates_per_s"`
	CPUus     float64 `json:"cpu_us_per_estimate"`
	RSSPeakMB float64 `json:"rss_peak_mb"`
	// StealShare is the share of the machine's CPU time the hypervisor
	// withheld during the window; a window above maxSteal is Disturbed.
	StealShare float64 `json:"steal_share"`
	Disturbed  bool    `json:"disturbed"`
	// Measured marks the trials the run's medians are taken over.
	Measured bool `json:"measured"`
}

// window is everything measured against one running daemon.
type window struct {
	trialStats
	samples   []sample
	led       ledger
	upd       *updater
	clientCPU float64 // driver CPU seconds / wall seconds over the window
}

// sendOnce posts the given requests of st, each once.
func sendOnce(c *conn, path string, st *stream, which []int32) error {
	for _, i := range which {
		if _, _, err := c.post(path, st.reqs[i].body); err != nil {
			return fmt.Errorf("POST %s: %w", path, err)
		}
	}
	return nil
}

// measure warms the daemon up and then measures one window of the
// workload's traffic, from stream position next on. Warm-up is a second
// of that traffic (with updates beside it on update_mixed), or the
// stream's cache fill.
func measure(d *daemon, w *workload, st *stream, next int, batches []updateBatch, warm, length time.Duration) (*window, int, error) {
	win := &window{led: ledger{model: w.model}}
	reader := newConn(d.base)
	defer reader.close()
	side := newConn(d.base) // updater, second cache-fill client, /stats reader
	defer side.close()

	begin := time.Now()
	var wg sync.WaitGroup
	var sideErr error
	// fail waits for the side connection before giving up, and blames the
	// daemon's death rather than its symptom when that is what happened.
	fail := func(err error) (*window, int, error) {
		wg.Wait()
		if dead := d.alive(); dead != nil {
			err = dead
		}
		return nil, next, err
	}

	var err error
	switch {
	case batches != nil:
		win.upd = &updater{
			c: side, path: "/v1/models/" + w.model + "/update", batches: batches,
			start: begin, interval: time.Second / updateRate,
			from: begin.Add(warm), to: begin.Add(warm + length), led: &win.led,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sideErr = win.upd.run(win.upd.to, 20*time.Second)
		}()
		_, next, err = closedLoop(reader, w.path, st, next, win.upd.from)
	case st.fill != nil:
		// Two concurrent clients fuse in the coalescer and skip its linger,
		// which fills the cache several times faster than one would.
		wg.Add(1)
		go func() {
			defer wg.Done()
			sideErr = sendOnce(side, w.path, st, st.fill[:len(st.fill)/2])
		}()
		err = sendOnce(reader, w.path, st, st.fill[len(st.fill)/2:])
		wg.Wait()
		if err == nil {
			err = sideErr
		}
	default:
		_, next, err = closedLoop(reader, w.path, st, next, begin.Add(warm))
	}
	if err != nil {
		return fail(fmt.Errorf("warm-up: %w", err))
	}
	to := begin.Add(warm + length)
	if batches == nil {
		// From here on the daemon has one client.
		s, err := fetchStats(side.client, d.base)
		if err != nil {
			return fail(err)
		}
		win.led.observe(s)
		to = time.Now().Add(length)
	}

	rt0, err := fetchRouteTime(reader.client, d.base, w.path)
	if err != nil {
		return fail(err)
	}
	u0, err := d.usage()
	if err != nil {
		return fail(err)
	}
	cpu0, t0 := selfCPU(), time.Now()
	steal0, ticks0 := readSteal()
	win.samples, next, err = closedLoop(reader, w.path, st, next, to)
	secs := time.Since(t0).Seconds()
	if err != nil {
		return fail(err)
	}
	steal1, ticks1 := readSteal()
	win.clientCPU = (selfCPU() - cpu0).Seconds() / secs
	u1, err := d.usage()
	if err != nil {
		return fail(err)
	}
	rt1, err := fetchRouteTime(reader.client, d.base, w.path)
	if err != nil {
		return fail(err)
	}
	win.trialStats = summarize(win.samples, secs, u1.cpu-u0.cpu)
	win.RSSPeakMB = u1.peakRSS
	if rt1.count > rt0.count {
		// What the sockets, the kernel and both HTTP stacks add: the client's
		// mean latency minus the daemon's own mean handler time, over the
		// same requests.
		win.WireUs = win.MeanUs - (rt1.seconds-rt0.seconds)/float64(rt1.count-rt0.count)*1e6
	}
	if ticks1 > ticks0 {
		win.StealShare = float64(steal1-steal0) / float64(ticks1-ticks0)
		win.Disturbed = win.StealShare > maxSteal
	}

	if batches == nil {
		s, err := fetchStats(side.client, d.base)
		if err != nil {
			return fail(err)
		}
		win.led.observe(s)
	}
	wg.Wait()
	if sideErr != nil {
		return fail(sideErr)
	}
	return win, next, nil
}

// summarize reduces one window's samples. Only requests answered 200
// contribute estimates; every sample contributes its latency.
func summarize(samples []sample, secs float64, cpu time.Duration) trialStats {
	r := trialStats{Seconds: secs, Requests: len(samples)}
	lats := make([]float64, len(samples))
	for i, s := range samples {
		lats[i] = float64(s.lat) / float64(time.Microsecond)
		r.MeanUs += lats[i] / float64(len(samples))
		if s.status == http.StatusOK {
			r.Estimates += len(s.req.ts)
		}
	}
	asc := sorted(lats)
	r.P50us, r.P95us, r.P99us = percentile(asc, 0.50), percentile(asc, 0.95), percentile(asc, 0.99)
	r.PerSecond = float64(r.Estimates) / secs
	if r.Estimates > 0 {
		r.CPUus = float64(cpu) / float64(time.Microsecond) / float64(r.Estimates)
	}
	return r
}
