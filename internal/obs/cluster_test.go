package obs

import (
	"strings"
	"testing"
)

func TestClusterMonitorCounters(t *testing.T) {
	m := NewClusterMonitor()
	m.SetRole("m", false, 1)
	m.Promotion("m")
	m.SetRole("m", true, 2)
	m.Demotion("m")
	m.SetLag("m", "http://b:1", 3)
	m.SetLag("m", "http://c:1", 0)
	m.ObservePull(5, false)
	m.ObservePull(0, true)
	m.MarkDiverged("m")
	m.MarkDiverged("m") // latched, not double-counted

	c := m.Counters()
	if c.Promotions != 1 || c.Demotions != 1 {
		t.Fatalf("promotions/demotions = %d/%d, want 1/1", c.Promotions, c.Demotions)
	}
	if c.Diverged != 1 {
		t.Fatalf("diverged = %d, want 1", c.Diverged)
	}
	if c.Pulls != 2 || c.PullErrors != 1 || c.Entries != 5 {
		t.Fatalf("pulls/errors/entries = %d/%d/%d, want 2/1/5", c.Pulls, c.PullErrors, c.Entries)
	}

	var b strings.Builder
	pw := NewPromWriter(&b)
	m.WriteMetrics(pw)
	pw.Flush()
	out := b.String()
	for _, want := range []string{
		`selestd_cluster_is_leader{model="m"} 1`,
		`selestd_cluster_term{model="m"} 2`,
		`selestd_cluster_failovers_total{model="m"} 1`,
		`selestd_cluster_demotions_total{model="m"} 1`,
		`selestd_replication_diverged{model="m"} 1`,
		`selestd_replication_lag{model="m",peer="http://b:1"} 3`,
		`selestd_replication_pulls_total 2`,
		`selestd_replication_pull_errors_total 1`,
		`selestd_replication_entries_total 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	m.DropPeer("m", "http://b:1")
	b.Reset()
	pw = NewPromWriter(&b)
	m.WriteMetrics(pw)
	pw.Flush()
	if strings.Contains(b.String(), `peer="http://b:1"`) {
		t.Error("dropped peer still exposed")
	}
}

func TestClusterMonitorNilSafe(t *testing.T) {
	var m *ClusterMonitor
	m.SetRole("m", true, 1)
	m.Promotion("m")
	m.Demotion("m")
	m.SetLag("m", "p", 1)
	m.DropPeer("m", "p")
	m.MarkDiverged("m")
	m.ObservePull(1, false)
	if c := m.Counters(); c != (ClusterCounters{}) {
		t.Fatalf("nil monitor counters = %+v", c)
	}
	pw := NewPromWriter(&strings.Builder{})
	m.WriteMetrics(pw)
	pw.Flush()
}

func TestParseTraceID(t *testing.T) {
	id := NextTraceID()
	got, ok := ParseTraceID(FormatTraceID(id))
	if !ok || got != id {
		t.Fatalf("round-trip: got %d ok=%v, want %d", got, ok, id)
	}
	for _, bad := range []string{"", "zz", "0", "00000000000000000", "0000000000000000", "-1"} {
		if _, ok := ParseTraceID(bad); ok {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
}
