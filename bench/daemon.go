package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running selestd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	flags  []string
	stderr *lockedBuffer
	exited chan struct{} // closed once Wait returned
	err    error         // Wait's result, valid after exited
}

// lockedBuffer collects the daemon's log while exec's copier goroutine
// writes it and the driver reads it for error messages.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

// tail returns the last n bytes of the log.
func (l *lockedBuffer) tail(n int) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.b.String()
	if len(s) > n {
		s = s[len(s)-n:]
	}
	return s
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the daemon binds it; startDaemon notices if something
// else took the port in between, because the daemon then exits.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs bin with flags on a fresh port and probes it with
// the given estimate request until the first 200. The returned duration
// runs from exec to that 200: model load, CSV parse, attach and WAL
// open, listener up, first plan compile.
func startDaemon(bin string, flags []string, probePath string, probeBody []byte, timeout time.Duration) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, fmt.Errorf("find a free port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{
		base:   "http://" + addr,
		flags:  append([]string{"-addr", addr}, flags...),
		stderr: &lockedBuffer{},
		exited: make(chan struct{}),
	}
	d.cmd = exec.Command(bin, d.flags...)
	d.cmd.Stderr = d.stderr
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()

	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	lastErr := errors.New("no attempt made")
	for time.Since(start) < timeout {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("selestd exited during start-up (%v; port %d taken?):\n%s", d.err, port, d.stderr.tail(2000))
		default:
		}
		resp, err := client.Post(d.base+probePath, "application/json", bytes.NewReader(probeBody))
		if err != nil {
			lastErr = err
			time.Sleep(2 * time.Millisecond)
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return d, time.Since(start), nil
		}
		lastErr = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, 0, fmt.Errorf("selestd never answered 200 on %s within %s (last: %v):\n%s", probePath, timeout, lastErr, d.stderr.tail(2000))
}

// alive reports an error once the daemon process has gone.
func (d *daemon) alive() error {
	select {
	case <-d.exited:
		return fmt.Errorf("selestd died (%v):\n%s", d.err, d.stderr.tail(2000))
	default:
		return nil
	}
}

// stop asks for a graceful drain and waits for the process to end,
// killing it if the drain outlasts its own 10 s bound.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// ----------------------------------------------------------------------------
// /proc

// procUsage is the daemon's CPU time and peak resident set.
type procUsage struct {
	cpu     time.Duration // utime + stime
	peakRSS float64       // VmHWM in MiB
}

// clockTick is USER_HZ, fixed at 100 on every Linux ABI Go runs on.
const clockTick = 100

// parseProcStat extracts utime+stime from the text of /proc/<pid>/stat.
// The command name may itself contain spaces and parentheses, so fields
// are counted from the last ')'.
func parseProcStat(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat: %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", stat)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad utime/stime in /proc stat: %q", stat)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// parseVmHWM extracts the peak resident set, in MiB, from the text of
// /proc/<pid>/status.
func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line: %q", line)
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("bad VmHWM value: %q", line)
		}
		return kb / 1024, nil
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

func readUsage(pid int) (procUsage, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procUsage{}, err
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procUsage{}, err
	}
	var u procUsage
	if u.cpu, err = parseProcStat(string(stat)); err != nil {
		return procUsage{}, err
	}
	if u.peakRSS, err = parseVmHWM(string(status)); err != nil {
		return procUsage{}, err
	}
	return u, nil
}

func (d *daemon) usage() (procUsage, error) { return readUsage(d.cmd.Process.Pid) }

// parseSteal extracts, from the text of /proc/stat, the ticks the
// hypervisor ran something else while this machine wanted a CPU, and
// the ticks of all CPUs together.
func parseSteal(stat string) (steal, total uint64, err error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal guest guest_nice
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected first line of /proc/stat: %q", line)
	}
	for i, field := range f[1:9] {
		v, err := strconv.ParseUint(field, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad /proc/stat field %q", field)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

func readSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	steal, total, _ = parseSteal(string(b))
	return steal, total
}

// ----------------------------------------------------------------------------
// /stats and /metrics

// statsDoc is the part of the daemon's GET /stats the benchmark reads.
type statsDoc struct {
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	Build    struct {
		GoVersion  string `json:"go_version"`
		GOMAXPROCS int    `json:"gomaxprocs"`
	} `json:"build"`
	Cache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
	} `json:"cache"`
	Models []struct {
		Name       string `json:"name"`
		Generation uint64 `json:"generation"`
		Batcher    *struct {
			Requests uint64 `json:"requests"`
			Batches  uint64 `json:"batches"`
			Timeouts uint64 `json:"timeouts"`
		} `json:"batcher"`
		Plans *struct {
			Misses   uint64 `json:"misses"`
			Compiles uint64 `json:"compiles"`
			Drops    uint64 `json:"drops"`
		} `json:"plans"`
	} `json:"models"`
	Ingest map[string]struct {
		AppliedSeq       uint64 `json:"applied_seq"`
		BatchesApplied   uint64 `json:"batches_applied"`
		Skipped          uint64 `json:"skipped"`
		Retrained        uint64 `json:"retrained"`
		JournaledBatches uint64 `json:"journaled_batches"`
		JournalSyncs     uint64 `json:"journal_syncs"`
		JournalBytes     int64  `json:"journal_bytes"`
		Compactions      uint64 `json:"compactions"`
	} `json:"ingest"`
	Kernels []struct {
		Calls uint64 `json:"calls"`
		Nanos uint64 `json:"nanos"`
	} `json:"kernels"`
}

// counter names one monotone daemon counter a window is differenced over.
type counter int

const (
	cRequests counter = iota
	cErrors
	cCacheHits
	cCacheMisses
	cCacheEvictions
	cKernelNanos
	cBatcherRequests
	cBatcherBatches
	cBatcherTimeouts
	cPlanMisses
	cPlanCompiles
	cPlanDrops
	cApplied
	cSkipped
	cRetrained
	cJournaled
	cJournalSyncs
	cJournalBytes
	cCompactions
	numCounters
)

type counters [numCounters]uint64

// perGeneration marks the counters that live on a published model
// generation (its coalescer and its plan pool): a hot-swap restarts
// them from zero.
var perGeneration = [numCounters]bool{
	cBatcherRequests: true, cBatcherBatches: true, cBatcherTimeouts: true,
	cPlanMisses: true, cPlanCompiles: true, cPlanDrops: true,
}

// ledger accumulates counter growth over successive /stats snapshots of
// one model. A counter that restarted (its generation changed, or, for
// the WAL's size, a compaction truncated the log) is added from zero;
// everything else is a plain difference.
type ledger struct {
	model    string
	have     bool
	gen      uint64
	prev     counters
	sum      counters
	applied  uint64 // latest applied_seq
	maxprocs int    // the daemon's GOMAXPROCS
}

func (l *ledger) observe(s *statsDoc) {
	var cur counters
	cur[cRequests], cur[cErrors] = s.Requests, s.Errors
	cur[cCacheHits], cur[cCacheMisses], cur[cCacheEvictions] = s.Cache.Hits, s.Cache.Misses, s.Cache.Evictions
	for _, k := range s.Kernels {
		cur[cKernelNanos] += k.Nanos
	}
	gen := l.gen
	for _, m := range s.Models {
		if m.Name != l.model {
			continue
		}
		gen = m.Generation
		if m.Batcher != nil {
			cur[cBatcherRequests], cur[cBatcherBatches], cur[cBatcherTimeouts] = m.Batcher.Requests, m.Batcher.Batches, m.Batcher.Timeouts
		}
		if m.Plans != nil {
			cur[cPlanMisses], cur[cPlanCompiles], cur[cPlanDrops] = m.Plans.Misses, m.Plans.Compiles, m.Plans.Drops
		}
	}
	if in, ok := s.Ingest[l.model]; ok {
		cur[cApplied], cur[cSkipped], cur[cRetrained] = in.BatchesApplied, in.Skipped, in.Retrained
		cur[cJournaled], cur[cJournalSyncs], cur[cCompactions] = in.JournaledBatches, in.JournalSyncs, in.Compactions
		cur[cJournalBytes] = uint64(in.JournalBytes)
		l.applied = in.AppliedSeq
	}
	l.maxprocs = s.Build.GOMAXPROCS
	if l.have {
		for i := range cur {
			if (gen != l.gen && perGeneration[i]) || cur[i] < l.prev[i] {
				l.sum[i] += cur[i]
			} else {
				l.sum[i] += cur[i] - l.prev[i]
			}
		}
	}
	l.have, l.gen, l.prev = true, gen, cur
}

// ratio is num/den over the accumulated window, 0 when den is 0.
func (l *ledger) ratio(num, den counter) float64 {
	if l.sum[den] == 0 {
		return 0
	}
	return float64(l.sum[num]) / float64(l.sum[den])
}

// routeTime is the daemon's own account of one route: how many requests
// its handler answered and the seconds it spent on them, from the
// selestd_http_request_duration_seconds histogram of GET /metrics.
type routeTime struct {
	count   uint64
	seconds float64
}

// parseRouteTime extracts one route's histogram sum and count from the
// text of GET /metrics.
func parseRouteTime(metrics, route string) (routeTime, error) {
	var rt routeTime
	var err1, err2 error = errors.New("no _sum line"), errors.New("no _count line")
	labels := fmt.Sprintf("{route=%q} ", route)
	for _, line := range strings.Split(metrics, "\n") {
		if v, ok := strings.CutPrefix(line, "selestd_http_request_duration_seconds_sum"+labels); ok {
			rt.seconds, err1 = strconv.ParseFloat(v, 64)
		} else if v, ok := strings.CutPrefix(line, "selestd_http_request_duration_seconds_count"+labels); ok {
			rt.count, err2 = strconv.ParseUint(v, 10, 64)
		}
	}
	if err := errors.Join(err1, err2); err != nil {
		return routeTime{}, fmt.Errorf("GET /metrics: route %s: %w", route, err)
	}
	return rt, nil
}

func fetchRouteTime(c *http.Client, base, route string) (routeTime, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return routeTime{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return routeTime{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return routeTime{}, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseRouteTime(string(b), route)
}

// fetchStats reads and decodes GET /stats over the given client.
func fetchStats(c *http.Client, base string) (*statsDoc, error) {
	resp, err := c.Get(base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /stats: status %d", resp.StatusCode)
	}
	var s statsDoc
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("GET /stats: %w", err)
	}
	return &s, nil
}
