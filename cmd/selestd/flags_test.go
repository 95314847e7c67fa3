package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"selnet/internal/serve"
)

// goodFlags is a baseline that must validate; each test case breaks one
// knob and names the flag the error must mention.
func goodFlags() (serve.Config, ingestOptions, obsOptions, clusterOptions, time.Duration) {
	cfg := serve.Config{
		Cache: serve.CacheConfig{Capacity: 4096, Quantum: 1e-6},
	}
	opts := ingestOptions{
		queueDepth: 64, queries: 32, coalesceMax: 8, retrainWorkers: 1,
		snapshotEvery: 64, compactBytes: 4 << 20,
	}
	oo := obsOptions{traceSlow: 100 * time.Millisecond, shadowBudget: 2000, workloadShift: 0.25}
	return cfg, opts, oo, clusterOptions{}, 10 * time.Second
}

func TestValidateFlagsAcceptsDefaults(t *testing.T) {
	cfg, opts, oo, co, drain := goodFlags()
	if err := validateFlags(cfg, opts, oo, co, "", drain); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	// Boundary sample rates are legal.
	for _, rate := range []float64{0, 1} {
		oo.shadowSample = rate
		if err := validateFlags(cfg, opts, oo, co, "", drain); err != nil {
			t.Fatalf("shadow-sample %g rejected: %v", rate, err)
		}
	}
	// A negative -delta-u forces a retrain every cycle and +Inf never
	// retrains: both are legal.
	for _, du := range []float64{-1, math.Inf(1)} {
		opts.deltaU = du
		if err := validateFlags(cfg, opts, oo, co, "", drain); err != nil {
			t.Fatalf("-delta-u %g rejected: %v", du, err)
		}
	}
	// Every routing policy the serve layer accepts is a legal -router.
	for _, mode := range []string{"auto", "ensemble", "selnet", "kde", "lsh"} {
		if err := validateFlags(cfg, opts, oo, co, mode, drain); err != nil {
			t.Fatalf("-router %s rejected: %v", mode, err)
		}
	}
}

func TestValidateFlagsRejectsOutOfRange(t *testing.T) {
	cases := []struct {
		name string
		flag string // substring the error must carry
		mut  func(*serve.Config, *ingestOptions, *obsOptions, *clusterOptions, *time.Duration)
	}{
		{"shadow sample negative", "-shadow-sample",
			func(_ *serve.Config, _ *ingestOptions, oo *obsOptions, _ *clusterOptions, _ *time.Duration) {
				oo.shadowSample = -0.1
			}},
		{"shadow sample above one", "-shadow-sample",
			func(_ *serve.Config, _ *ingestOptions, oo *obsOptions, _ *clusterOptions, _ *time.Duration) {
				oo.shadowSample = 1.5
			}},
		{"oracle budget negative", "-shadow-oracle-budget",
			func(_ *serve.Config, _ *ingestOptions, oo *obsOptions, _ *clusterOptions, _ *time.Duration) {
				oo.shadowBudget = -1
			}},
		{"trace slow negative", "-trace-slow",
			func(_ *serve.Config, _ *ingestOptions, oo *obsOptions, _ *clusterOptions, _ *time.Duration) {
				oo.traceSlow = -time.Second
			}},
		{"coalesce zero", "-coalesce",
			func(_ *serve.Config, opts *ingestOptions, _ *obsOptions, _ *clusterOptions, _ *time.Duration) {
				opts.coalesceMax = 0
			}},
		{"update queue zero", "-update-queue",
			func(_ *serve.Config, opts *ingestOptions, _ *obsOptions, _ *clusterOptions, _ *time.Duration) {
				opts.queueDepth = 0
			}},
		{"update queries zero", "-update-queries",
			func(_ *serve.Config, opts *ingestOptions, _ *obsOptions, _ *clusterOptions, _ *time.Duration) {
				opts.queries = 0
			}},
		{"update queries negative", "-update-queries",
			func(_ *serve.Config, opts *ingestOptions, _ *obsOptions, _ *clusterOptions, _ *time.Duration) {
				opts.queries = -1
			}},
		{"compact bytes negative", "-journal-compact-bytes",
			func(_ *serve.Config, opts *ingestOptions, _ *obsOptions, _ *clusterOptions, _ *time.Duration) {
				opts.compactBytes = -1
			}},
		{"quantum zero", "-quantum",
			func(cfg *serve.Config, _ *ingestOptions, _ *obsOptions, _ *clusterOptions, _ *time.Duration) {
				cfg.Cache.Quantum = 0
			}},
		{"quantum NaN", "-quantum",
			func(cfg *serve.Config, _ *ingestOptions, _ *obsOptions, _ *clusterOptions, _ *time.Duration) {
				cfg.Cache.Quantum = math.NaN()
			}},
		{"quantum +Inf", "-quantum",
			func(cfg *serve.Config, _ *ingestOptions, _ *obsOptions, _ *clusterOptions, _ *time.Duration) {
				cfg.Cache.Quantum = math.Inf(1)
			}},
		{"shadow sample NaN", "-shadow-sample",
			func(_ *serve.Config, _ *ingestOptions, oo *obsOptions, _ *clusterOptions, _ *time.Duration) {
				oo.shadowSample = math.NaN()
			}},
		{"drift qerror NaN", "-drift-qerror",
			func(_ *serve.Config, _ *ingestOptions, oo *obsOptions, _ *clusterOptions, _ *time.Duration) {
				oo.driftQError = math.NaN()
			}},
		{"drift qerror +Inf", "-drift-qerror",
			func(_ *serve.Config, _ *ingestOptions, oo *obsOptions, _ *clusterOptions, _ *time.Duration) {
				oo.driftQError = math.Inf(1)
			}},
		{"workload shift NaN", "-workload-shift",
			func(_ *serve.Config, _ *ingestOptions, oo *obsOptions, _ *clusterOptions, _ *time.Duration) {
				oo.workloadShift = math.NaN()
			}},
		{"workload shift +Inf", "-workload-shift",
			func(_ *serve.Config, _ *ingestOptions, oo *obsOptions, _ *clusterOptions, _ *time.Duration) {
				oo.workloadShift = math.Inf(1)
			}},
		{"delta-u NaN", "-delta-u",
			func(_ *serve.Config, opts *ingestOptions, _ *obsOptions, _ *clusterOptions, _ *time.Duration) {
				opts.deltaU = math.NaN()
			}},
		{"cache negative", "-cache",
			func(cfg *serve.Config, _ *ingestOptions, _ *obsOptions, _ *clusterOptions, _ *time.Duration) {
				cfg.Cache.Capacity = -1
			}},
		{"drain zero", "-drain",
			func(_ *serve.Config, _ *ingestOptions, _ *obsOptions, _ *clusterOptions, d *time.Duration) {
				*d = 0
			}},
		{"cluster self without peers", "-cluster-self",
			func(_ *serve.Config, _ *ingestOptions, _ *obsOptions, co *clusterOptions, _ *time.Duration) {
				co.self = "http://a:1"
			}},
		{"cluster peers without self", "-cluster-self",
			func(_ *serve.Config, _ *ingestOptions, _ *obsOptions, co *clusterOptions, _ *time.Duration) {
				co.peers = []string{"http://a:1"}
				co.replicas, co.heartbeat, co.ack, co.ackTimeout = 2, time.Second, 1, time.Second
			}},
		{"cluster self outside peers", "-cluster-self",
			func(_ *serve.Config, _ *ingestOptions, _ *obsOptions, co *clusterOptions, _ *time.Duration) {
				co.self = "http://z:1"
				co.peers = []string{"http://a:1", "http://b:1"}
				co.replicas, co.heartbeat, co.ack, co.ackTimeout = 2, time.Second, 1, time.Second
			}},
		{"cluster without journal", "-journal-dir",
			func(_ *serve.Config, opts *ingestOptions, _ *obsOptions, co *clusterOptions, _ *time.Duration) {
				co.self = "http://a:1"
				co.peers = []string{"http://a:1", "http://b:1"}
				co.replicas, co.heartbeat, co.ack, co.ackTimeout = 2, time.Second, 1, time.Second
				opts.journalDir = ""
			}},
		{"cluster ack negative", "-cluster-ack",
			func(_ *serve.Config, opts *ingestOptions, _ *obsOptions, co *clusterOptions, _ *time.Duration) {
				co.self = "http://a:1"
				co.peers = []string{"http://a:1", "http://b:1"}
				co.replicas, co.heartbeat, co.ack, co.ackTimeout = 2, time.Second, -1, time.Second
				opts.journalDir = "j"
			}},
	}
	for _, tc := range cases {
		cfg, opts, oo, co, drain := goodFlags()
		tc.mut(&cfg, &opts, &oo, &co, &drain)
		err := validateFlags(cfg, opts, oo, co, "", drain)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.flag)
		}
	}
	cfg, opts, oo, co, drain := goodFlags()
	// dnn is a retired kind: the codec no longer serves the deep baselines.
	for _, mode := range []string{"bogus-kind", "dnn"} {
		err := validateFlags(cfg, opts, oo, co, mode, drain)
		if err == nil || !strings.Contains(err.Error(), "-router") {
			t.Errorf("-router %s: err = %v, want one naming -router", mode, err)
		}
	}
}

func TestParsePeers(t *testing.T) {
	got := parsePeers(" http://a:1/, http://b:2 ,,http://c:3")
	want := []string{"http://a:1", "http://b:2", "http://c:3"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if parsePeers("") != nil {
		t.Fatal("empty list should parse to nil")
	}
}
