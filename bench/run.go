package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"selnet/internal/metrics"
	"selnet/internal/modelcodec"
	"selnet/internal/serve"
)

// Shape of one run: a handful of independent trials, each a fresh
// daemon process that is started (one setup_s sample), warmed up,
// measured for its share of -seconds, probed for accuracy and stopped.
// A metric's value is the median over the trials. A selestd process
// settles into a faster or a slower regime for its whole life (how its
// parallel kernels and the client land on two cores), so rounds inside
// one process agree with each other and disagree with the next process;
// only fresh processes sample that.
//
// The sandbox is a small virtual machine whose host at times withholds
// the CPU for minutes (steal time). A trial during which more than
// maxSteal of the machine's CPU time was stolen is disturbed. With at
// least minClean undisturbed trials the disturbed ones are left out of
// the medians and made up for by up to extraTrials more; with fewer the
// disturbance outlasts the run, and everything is measured as it is.
const (
	trials       = 5
	extraTrials  = 3
	minClean     = 3
	maxSteal     = 0.02
	tracedTrials = 2 // a traced run spends the rest of its time in-process
	warmUp       = time.Second
	startTimeout = 60 * time.Second
	// probeRows is the size of a run's accuracy probe, split over its
	// trials. A batch request carries 32 vectors in 256 rows, so the batch
	// route gets four times the rows to see as many distinct vectors.
	probeRows = 640
)

type config struct {
	root, work, out string
	seed            int64
	seconds         float64
	trace           bool
}

func (c config) daemonBin() string { return filepath.Join(c.work, "selestd") }

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one run of one workload produced; it is what
// -compare reads.
type record struct {
	Workload         string   `json:"workload"`
	Why              string   `json:"why"`
	Seed             int64    `json:"seed"`
	FixtureSeed      int64    `json:"fixture_seed"`
	Commit           string   `json:"commit"`
	GoVersion        string   `json:"go_version"`
	NProc            int      `json:"nproc"`
	DaemonGOMAXPROCS int      `json:"daemon_gomaxprocs"`
	DaemonFlags      []string `json:"daemon_flags"`
	Seconds          float64  `json:"seconds"`
	Traced           bool     `json:"traced"`

	Correct      bool   `json:"correct"`
	Attempted    int    `json:"attempted"`
	Failed       int    `json:"failed"`
	FirstFailure string `json:"first_failure,omitempty"`

	// Metrics are the contract's: end-to-end on an untraced run,
	// per-layer on a traced one. Detail holds whatever else was measured
	// on the way (update latencies on an untraced update_mixed run).
	Metrics map[string]value `json:"metrics"`
	Detail  map[string]value `json:"detail,omitempty"`
	// Counts is the number of samples behind each timing; Tails the
	// highest percentile with at least ten samples beyond it.
	Counts map[string]int  `json:"sample_counts"`
	Tails  map[string]tail `json:"tails,omitempty"`
	// Trials holds every trial's own values; a reported metric is the
	// median over the trials marked measured.
	Trials []trialStats `json:"trials"`
}

func (r *record) set(name string, v float64) {
	def := findMetric(name)
	if def == nil {
		panic("selbench: metric " + name + " is not declared in metrics.go")
	}
	// An untraced run reports the end-to-end metrics, a traced run the
	// per-layer ones; what the other kind measured on the way is detail.
	into := r.Detail
	if def.endToEnd != r.Traced {
		into = r.Metrics
	}
	into[name] = value{v, def.unit}
}

// timing records a latency distribution's sample count and tail and
// returns its ascending values.
func (r *record) timing(name string, v []float64) []float64 {
	asc := sorted(v)
	r.Counts[name] = len(asc)
	if t, ok := tailPercentile(asc); ok {
		r.Tails[name] = t
	}
	return asc
}

func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // the acceptance driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func selfCPU() time.Duration {
	stat, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0
	}
	cpu, _ := parseProcStat(string(stat))
	return cpu
}

// daemonFlags are the exact selestd flags of a workload, apart from
// -addr. Static workloads run the daemon's defaults.
func daemonFlags(w *workload, fx *fixtures, journal string) []string {
	flags := []string{"-model", w.model + "=" + fx.modelPath(w.model)}
	if !w.static {
		// -delta-u -1 retrains on every cycle and epochs == patience makes
		// every retrain exactly three epochs, so work per cycle is constant.
		flags = append(flags,
			"-data", w.model+"="+fx.csvPath, "-journal-dir", journal,
			"-delta-u", "-1", "-retrain-epochs", "3", "-retrain-patience", "3",
			"-update-queries", "128")
	}
	return flags
}

// moreTrials reports whether a run of want trials goes on after it has
// made some, clean of them undisturbed: until it has want clean ones,
// for at most extraTrials more, and past want only while the clean ones
// can still reach minClean, the number that lets the others be left out.
func moreTrials(want, made, clean int) bool {
	return clean < want && made < want+extraTrials && (made < want || clean >= minClean)
}

// isMeasured reports whether a trial counts towards the run's medians:
// a disturbed one does only when the run has too few clean trials to do
// without it.
func isMeasured(disturbed bool, want, clean int) bool {
	return !disturbed || clean < min(minClean, want)
}

// trial is one daemon process's worth of measurements.
type trial struct {
	win   *window
	qerrs []float64
}

// runner is what the trials of one run share.
type runner struct {
	cfg    config
	w      *workload
	fx     *fixtures
	st     *stream
	next   int           // stream position the next trial starts from
	length time.Duration // one trial's measured window
	orc    *oracle
	rec    *record
}

// trial starts a fresh daemon, measures one window, sends the given
// share of the accuracy probe and stops the daemon.
func (r *runner) trial(batches []updateBatch, probes []request) (*trial, error) {
	cfg, w, fx, st := r.cfg, r.w, r.fx, r.st
	journal, err := os.MkdirTemp("", "selbench-journal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(journal)
	d, took, err := startDaemon(cfg.daemonBin(), daemonFlags(w, fx, journal), w.path, st.at(r.next).body, startTimeout)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	r.rec.DaemonFlags = d.flags

	win, after, err := measure(d, w, st, r.next, batches, warmUp, r.length)
	if err != nil {
		return nil, err
	}
	r.next = after
	win.SetupS = took.Seconds()
	tr := &trial{win: win}

	// The accuracy probe runs once every acknowledged update is applied
	// (measure waited for that), against the mirror brought to the same
	// state.
	mirror := fx.db
	if win.upd != nil {
		mirror = fx.db.Clone()
		for i, r := range win.upd.recs {
			if r.visible >= 0 { // refused batches never reached the daemon's data
				applyToMirror(mirror, &batches[i])
			}
		}
	}
	probe := newConn(d.base)
	defer probe.close()
	for i := range probes {
		req := &probes[i]
		status, body, err := probe.post(w.path, req.body)
		if err != nil {
			if dead := d.alive(); dead != nil {
				return nil, dead
			}
			return nil, fmt.Errorf("accuracy probe: %w", err)
		}
		for j, est := range r.orc.check(req, status, body) {
			tr.qerrs = append(tr.qerrs, metrics.QError(est, mirror.Selectivity(req.xs[j], req.ts[j]), 1))
		}
	}
	return tr, nil
}

// runWorkload is one run: fixtures, inputs from the seed, the trials,
// the oracle over every answer, and on a traced run the in-process
// layer timings.
func runWorkload(cfg config, w *workload) (*record, error) {
	fx, err := loadFixtures(cfg.work)
	if err != nil {
		return nil, err
	}
	rec := &record{
		Workload: w.name, Why: w.why, Seed: cfg.seed, FixtureSeed: fixtureSeed,
		Commit: commitOf(cfg.root), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		Seconds: cfg.seconds, Traced: cfg.trace,
		Metrics: map[string]value{}, Detail: map[string]value{},
		Counts: map[string]int{}, Tails: map[string]tail{},
	}

	n := trials
	if cfg.trace {
		n = tracedTrials
	}
	length := time.Duration(cfg.seconds * float64(time.Second) / trials)
	st := w.build(fx, streamRNG(cfg.seed, w.name), w.model)
	rows := probeRows
	if w.path == "/v1/estimate/batch" {
		rows *= 4
	}
	probes := probeQueries(fx, w, streamRNG(cfg.seed, w.name+"/probe"), rows)
	probeShare := (len(probes) + n - 1) / n
	card := float64(fx.db.Size())
	perProcess := 0 // update batches one trial may send
	if !w.static {
		perProcess = int((warmUp+length).Seconds()*updateRate) + 2
		card += float64(perProcess * updateInserts)
	}
	var ref serve.Estimator
	if w.static {
		if ref, err = modelcodec.LoadFile(fx.modelPath(w.model)); err != nil {
			return nil, err
		}
	}
	r := &runner{cfg: cfg, w: w, fx: fx, st: st, length: length, orc: newOracle(ref, card), rec: rec}
	orc := r.orc

	var done []*trial
	// Generating the inputs left garbage behind; collect it now rather
	// than beside the first trial's daemon.
	runtime.GC()
	clean := 0
	for i := 0; moreTrials(n, i, clean); i++ {
		var batches []updateBatch
		if !w.static {
			batches = updateBatches(fx.db, streamRNG(cfg.seed, fmt.Sprintf("%s/updates/%d", w.name, i)), perProcess)
		}
		mine := probes[i%n*probeShare : min((i%n+1)*probeShare, len(probes))]
		tr, err := r.trial(batches, mine)
		if err != nil {
			return nil, err
		}
		done = append(done, tr)
		if !tr.win.Disturbed {
			clean++
		}
	}
	// Every trial's answers are checked; only the undisturbed ones are
	// measured, if there are enough of them.
	var measured []*trial
	for _, tr := range done {
		tr.win.Measured = isMeasured(tr.win.Disturbed, n, clean)
		if tr.win.Measured {
			measured = append(measured, tr)
		}
	}

	// The oracle reads the windows' answers only now, after the daemons
	// have gone: checking costs the driver CPU a daemon would feel.
	var lats, qerrs []float64
	var led ledger
	estimates, clientCPU := 0, 0.0
	var updates []updateRecord
	var pollGaps []time.Duration
	for _, tr := range done {
		for _, s := range tr.win.samples {
			orc.check(s.req, s.status, s.body)
		}
		if u := tr.win.upd; u != nil {
			orc.attempted += len(u.recs)
			for i := 0; i < u.rejected; i++ {
				orc.fail(fmt.Errorf("update batch refused (not 202)"))
			}
		}
		rec.Trials = append(rec.Trials, tr.win.trialStats)
	}
	steal := 0.0
	for _, tr := range measured {
		for _, s := range tr.win.samples {
			lats = append(lats, float64(s.lat)/float64(time.Microsecond))
		}
		steal += tr.win.StealShare / float64(len(measured))
		qerrs = append(qerrs, tr.qerrs...)
		for c := range led.sum {
			led.sum[c] += tr.win.led.sum[c]
		}
		estimates += tr.win.Estimates
		clientCPU += tr.win.clientCPU / float64(len(measured))
		rec.DaemonGOMAXPROCS = tr.win.led.maxprocs
		if u := tr.win.upd; u != nil {
			for _, r := range u.recs {
				if !r.due.Before(u.from) && r.due.Before(u.to) && r.visible >= 0 {
					updates = append(updates, r)
				}
			}
			pollGaps = append(pollGaps, u.pollGaps...)
		}
	}
	rec.Attempted, rec.Failed, rec.Correct = orc.attempted, orc.failed, orc.failed == 0
	if orc.firstErr != nil {
		rec.FirstFailure = orc.firstErr.Error()
	}

	for _, name := range []string{"setup_s", "latency_p50_us", "latency_p95_us", "estimates_per_s", "cpu_us_per_estimate", "rss_peak_mb", "serve.wire_us"} { // the per-trial metrics
		rec.set(name, median(perTrial(rec.Trials, name)))
	}
	if wire := median(perTrial(rec.Trials, "serve.wire_us")); wire < 0 {
		return nil, fmt.Errorf("serve.wire_us = %.1f: the daemon reports more time in its handlers than its client waited for them", wire)
	}
	rec.set("qerror_p50", median(qerrs))
	rec.set("failed_share", float64(orc.failed)/float64(orc.attempted))
	rec.Counts["qerror_p50"] = len(qerrs)
	rec.Counts["trials"] = len(done)
	rec.Counts["trials_measured"] = len(measured)
	rec.set("driver.steal_share", steal)
	rec.timing("latency_us", lats)
	setStatsMetrics(rec, &led, estimates)
	setUpdateMetrics(rec, updates, pollGaps)
	rec.set("driver.client_cpu_share", clientCPU)
	rec.set("fixture.build_s", fx.buildS)

	if cfg.trace {
		if err := traceLayers(cfg, w, fx, st, rec); err != nil {
			return nil, err
		}
	}
	for _, def := range allMetrics() {
		if _, ok := rec.Metrics[def.name]; !ok && def.endToEnd != cfg.trace {
			return nil, fmt.Errorf("metric %s was not measured", def.name)
		}
	}
	return rec, nil
}

// perTrial lists one end-to-end metric's value in every measured trial.
func perTrial(trials []trialStats, name string) []float64 {
	var v []float64
	for _, t := range trials {
		if !t.Measured {
			continue
		}
		switch name {
		case "setup_s":
			v = append(v, t.SetupS)
		case "latency_p50_us":
			v = append(v, t.P50us)
		case "latency_p95_us":
			v = append(v, t.P95us)
		case "estimates_per_s":
			v = append(v, t.PerSecond)
		case "cpu_us_per_estimate":
			v = append(v, t.CPUus)
		case "rss_peak_mb":
			v = append(v, t.RSSPeakMB)
		case "serve.wire_us":
			v = append(v, t.WireUs)
		}
	}
	return v
}

// setStatsMetrics turns the windows' summed /stats differences into the
// per-layer ratios.
func setStatsMetrics(rec *record, l *ledger, estimates int) {
	per := func(c counter, n float64) float64 {
		if n == 0 {
			return 0
		}
		return float64(l.sum[c]) / n
	}
	lookups := float64(l.sum[cCacheHits] + l.sum[cCacheMisses])
	rec.set("serve.cache.hit_ratio", per(cCacheHits, lookups))
	rec.set("serve.cache.evictions_per_req", per(cCacheEvictions, lookups))
	rec.set("serve.batcher.reqs_per_batch", l.ratio(cBatcherRequests, cBatcherBatches))
	rec.set("serve.batcher.timeout_share", l.ratio(cBatcherTimeouts, cBatcherBatches))
	rec.set("infer.kernel_us_per_estimate", per(cKernelNanos, float64(estimates))/1e3)
	rec.set("infer.plan.compiles", float64(l.sum[cPlanCompiles]))
	rec.set("infer.plan.misses", float64(l.sum[cPlanMisses]))
	rec.set("infer.plan.drops", float64(l.sum[cPlanDrops]))
	cycles := float64(l.sum[cRetrained] + l.sum[cSkipped])
	rec.set("ingest.cycles", cycles)
	rec.set("ingest.retrained_share", per(cRetrained, cycles))
	rec.set("ingest.batches_per_cycle", per(cApplied, cycles))
	rec.set("ingest.wal.syncs_per_batch", l.ratio(cJournalSyncs, cJournaled))
	rec.set("ingest.wal.bytes_per_batch", l.ratio(cJournalBytes, cJournaled))
	rec.set("ingest.compactions", float64(l.sum[cCompactions]))
}

// setUpdateMetrics reports the update path as the client saw it, over
// the accepted batches that were due inside a window. Without updates
// the metrics read 0: nothing was sent.
func setUpdateMetrics(rec *record, updates []updateRecord, pollGaps []time.Duration) {
	var ack, visible, late, gaps []float64
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, r := range updates {
		ack, visible, late = append(ack, ms(r.ack)), append(visible, ms(r.visible)), append(late, ms(r.late))
	}
	for _, g := range pollGaps {
		gaps = append(gaps, ms(g))
	}
	at := func(name string, v []float64, q float64) float64 {
		if len(v) == 0 {
			return 0
		}
		return percentile(rec.timing(name, v), q)
	}
	rec.set("update_ack_p50_ms", at("update_ack_ms", ack, 0.50))
	rec.set("update_visible_p50_ms", at("update_visible_ms", visible, 0.50))
	rec.set("update_visible_p95_ms", at("update_visible_ms", visible, 0.95))
	rec.set("driver.sched_lag_p99_ms", at("driver.sched_lag_ms", late, 0.99))
	rec.set("driver.poll_gap_ms", at("driver.poll_gap_ms", gaps, 0.50))
}

// lastLine is the one JSON object the acceptance driver parses.
func lastLine(rec *record) string {
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// report prints every metric of a run by name with its unit.
func report(rec *record) {
	fmt.Printf("\n== %s (seed %d, %gs, traced=%v) ==\n", rec.Workload, rec.Seed, rec.Seconds, rec.Traced)
	fmt.Printf("   %s\n", rec.Why)
	fmt.Printf("   selestd %s\n", strings.Join(rec.DaemonFlags, " "))
	fmt.Printf("   attempted %d  failed %d  correct %v  %s\n", rec.Attempted, rec.Failed, rec.Correct, rec.FirstFailure)
	for i, t := range rec.Trials {
		if !t.Measured {
			fmt.Printf("   trial %d left out of the medians: %.1f %% of the machine's CPU time was stolen during its window\n", i+1, 100*t.StealShare)
		}
	}
	for _, group := range []struct {
		title string
		m     map[string]value
	}{{"metrics", rec.Metrics}, {"detail", rec.Detail}} {
		if len(group.m) == 0 {
			continue
		}
		fmt.Printf("   -- %s --\n", group.title)
		for _, def := range allMetrics() {
			if v, ok := group.m[def.name]; ok {
				fmt.Printf("   %-34s %14.4f %s\n", def.name, v.Value, v.Unit)
			}
		}
	}
	fmt.Printf("   -- timings: samples, and the highest percentile with >= 10 samples beyond it --\n")
	for _, name := range slices.Sorted(maps.Keys(rec.Counts)) {
		fmt.Printf("   %-34s n=%-7d", name, rec.Counts[name])
		if t, ok := rec.Tails[name]; ok {
			fmt.Printf(" %s=%.4f", t.Label, t.Value)
		}
		fmt.Println()
	}
}

func writeRecord(cfg config, rec *record) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	t := 0
	if rec.Traced {
		t = 1
	}
	return os.WriteFile(filepath.Join(cfg.out, fmt.Sprintf("run-%s-s%d-t%d.json", rec.Workload, rec.Seed, t)), b, 0o644)
}
