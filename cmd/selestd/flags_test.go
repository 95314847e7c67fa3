package main

import (
	"flag"
	"math"
	"strings"
	"testing"
	"time"

	"selnet/internal/cluster"
	"selnet/internal/ingest"
	"selnet/internal/obs"
	"selnet/internal/selnet"
	"selnet/internal/serve"
)

func TestValidateFlagsAcceptsDefaults(t *testing.T) {
	c := newConfig()
	if err := validateFlags(c); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	// Boundary sample rates are legal.
	for _, rate := range []float64{0, 1} {
		c.shadow.SampleRate = rate
		if err := validateFlags(c); err != nil {
			t.Fatalf("shadow-sample %g rejected: %v", rate, err)
		}
	}
	// A negative -delta-u forces a retrain every cycle and +Inf never
	// retrains: both are legal.
	for _, du := range []float64{-1, math.Inf(1)} {
		c.ingest.Update.DeltaU = du
		if err := validateFlags(c); err != nil {
			t.Fatalf("-delta-u %g rejected: %v", du, err)
		}
	}
	// Every routing policy the serve layer accepts is a legal -router.
	for _, mode := range []string{"auto", "ensemble", "selnet", "kde", "lsh"} {
		c.router = mode
		if err := validateFlags(c); err != nil {
			t.Fatalf("-router %s rejected: %v", mode, err)
		}
	}
}

// TestFlagDefaultsAreThePackageDefaults pins that each flag bound onto a
// package config defaults to that package's own default.
func TestFlagDefaultsAreThePackageDefaults(t *testing.T) {
	fs := flag.NewFlagSet("selestd", flag.ContinueOnError)
	newConfig().bind(fs)
	for name, want := range map[string]any{
		"quantum":               serve.DefaultCacheConfig().Quantum,
		"update-queue":          ingest.DefaultConfig().QueueDepth,
		"retrain-workers":       ingest.DefaultConfig().RetrainWorkers,
		"delta-u":               selnet.DefaultUpdateConfig().DeltaU,
		"retrain-patience":      selnet.DefaultUpdateConfig().Patience,
		"retrain-epochs":        selnet.DefaultUpdateConfig().MaxEpochs,
		"snapshot-every":        ingest.DefaultConfig().Journal.SnapshotEvery,
		"journal-compact-bytes": ingest.DefaultConfig().Journal.CompactBytes,
		"trace-slow":            obs.DefaultTracerConfig().SlowThreshold,
		"shadow-oracle-budget":  ingest.DefaultConfig().Oracle.Budget,
		"cluster-replicas":      cluster.DefaultConfig().Replicas,
		"cluster-heartbeat":     cluster.DefaultConfig().Heartbeat,
		"cluster-ack-timeout":   cluster.DefaultConfig().AckTimeout,
	} {
		f := fs.Lookup(name)
		if f == nil {
			t.Errorf("-%s not registered", name)
			continue
		}
		if got := f.Value.(flag.Getter).Get(); got != want {
			t.Errorf("-%s defaults to %v, want the package default %v", name, got, want)
		}
	}
	if fs.Lookup("coalesce") != nil {
		t.Error("-coalesce is registered; the coalesce limit is a constant")
	}
}

func TestValidateFlagsRejectsOutOfRange(t *testing.T) {
	clustered := func(c *config) {
		c.cluster.Self = "http://a:1"
		c.cluster.Peers = []string{"http://a:1", "http://b:1"}
		c.ingest.Journal.Dir = "j"
	}
	cases := []struct {
		name string
		flag string // substring the error must carry
		mut  func(*config)
	}{
		{"shadow sample negative", "-shadow-sample", func(c *config) { c.shadow.SampleRate = -0.1 }},
		{"shadow sample above one", "-shadow-sample", func(c *config) { c.shadow.SampleRate = 1.5 }},
		{"oracle budget negative", "-shadow-oracle-budget", func(c *config) { c.ingest.Oracle.Budget = -1 }},
		{"oracle budget zero", "-shadow-oracle-budget", func(c *config) { c.ingest.Oracle.Budget = 0 }},
		{"trace slow negative", "-trace-slow", func(c *config) { c.trace.SlowThreshold = -time.Second }},
		{"trace slow zero", "-trace-slow", func(c *config) { c.trace.SlowThreshold = 0 }},
		{"update queue zero", "-update-queue", func(c *config) { c.ingest.QueueDepth = 0 }},
		{"update queries zero", "-update-queries", func(c *config) { c.updateQueries = 0 }},
		{"update queries negative", "-update-queries", func(c *config) { c.updateQueries = -1 }},
		{"compact bytes negative", "-journal-compact-bytes", func(c *config) { c.ingest.Journal.CompactBytes = -1 }},
		{"compact bytes zero", "-journal-compact-bytes", func(c *config) { c.ingest.Journal.CompactBytes = 0 }},
		{"quantum zero", "-quantum", func(c *config) { c.serve.Cache.Quantum = 0 }},
		{"quantum NaN", "-quantum", func(c *config) { c.serve.Cache.Quantum = math.NaN() }},
		{"quantum +Inf", "-quantum", func(c *config) { c.serve.Cache.Quantum = math.Inf(1) }},
		{"shadow sample NaN", "-shadow-sample", func(c *config) { c.shadow.SampleRate = math.NaN() }},
		{"drift qerror NaN", "-drift-qerror", func(c *config) { c.drift.Threshold = math.NaN() }},
		{"drift qerror +Inf", "-drift-qerror", func(c *config) { c.drift.Threshold = math.Inf(1) }},
		{"workload shift NaN", "-workload-shift", func(c *config) { c.workload.Threshold = math.NaN() }},
		{"workload shift +Inf", "-workload-shift", func(c *config) { c.workload.Threshold = math.Inf(1) }},
		{"delta-u NaN", "-delta-u", func(c *config) { c.ingest.Update.DeltaU = math.NaN() }},
		{"cache negative", "-cache", func(c *config) { c.serve.Cache.Capacity = -1 }},
		{"drain zero", "-drain", func(c *config) { c.drain = 0 }},
		{"dist unknown", "-dist", func(c *config) { c.dist = "hamming" }},
		{"cluster self without peers", "-cluster-self", func(c *config) { c.cluster.Self = "http://a:1" }},
		{"cluster peers without self", "-cluster-self", func(c *config) {
			clustered(c)
			c.cluster.Self = ""
		}},
		{"cluster self outside peers", "-cluster-self", func(c *config) {
			clustered(c)
			c.cluster.Self = "http://z:1"
		}},
		{"cluster without journal", "-journal-dir", func(c *config) {
			clustered(c)
			c.ingest.Journal.Dir = ""
		}},
		{"cluster ack negative", "-cluster-ack", func(c *config) {
			clustered(c)
			c.cluster.AckFollowers = -1
		}},
	}
	for _, tc := range cases {
		c := newConfig()
		tc.mut(c)
		err := validateFlags(c)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.flag)
		}
	}
	// dnn is a retired kind: the codec no longer serves the deep baselines.
	for _, mode := range []string{"bogus-kind", "dnn"} {
		c := newConfig()
		c.router = mode
		err := validateFlags(c)
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
