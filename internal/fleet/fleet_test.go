package fleet

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

// TestHistogramQuantiles pins the bucketed quantile math.
func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for i := 1; i <= 1000; i++ {
		h.observe(time.Duration(i) * time.Millisecond)
	}
	if got := h.count.Load(); got != 1000 {
		t.Fatalf("count = %d", got)
	}
	// Log buckets bound relative error by the growth factor; allow a
	// generous 40% band around the true quantiles.
	checks := []struct {
		q    float64
		want time.Duration
	}{{0.5, 500 * time.Millisecond}, {0.99, 990 * time.Millisecond}, {0.999, 999 * time.Millisecond}}
	for _, c := range checks {
		got := h.quantile(c.q)
		lo := time.Duration(float64(c.want) * 0.6)
		hi := time.Duration(float64(c.want) * 1.4)
		if got < lo || got > hi {
			t.Errorf("q%.3f = %v, want within [%v, %v]", c.q, got, lo, hi)
		}
	}
	if got := h.max.Load(); time.Duration(got) != time.Second {
		t.Errorf("max = %v", time.Duration(got))
	}
	var empty histogram
	if empty.quantile(0.99) != 0 || empty.mean() != 0 {
		t.Error("empty histogram must report zeros")
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"netsim defaults", Config{}, true},
		{"netsim with addr", Config{Addr: "x:1"}, false},
		{"tcp without addr", Config{Mode: ModeTCP}, false},
		{"tcp with chaos", Config{Mode: ModeTCP, Addr: "x:1", ChaosAt: time.Second, HealAt: 2 * time.Second}, false},
		{"tcp with crash", Config{Mode: ModeTCP, Addr: "x:1", CrashAt: time.Second}, false},
		{"netsim with crash", Config{CrashAt: time.Second}, true},
		{"heal before split", Config{ChaosAt: 2 * time.Second, HealAt: time.Second}, false},
		{"bad mode", Config{Mode: "carrier-pigeon"}, false},
	}
	for _, c := range cases {
		err := c.cfg.withDefaults().validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: config accepted", c.name)
		}
	}
}

// TestFleetSmokeChaos is the harness acceptance test in miniature: a
// small fleet runs a full chaos scenario — partition mid-run, heal,
// readoption — and the report carries every SLO figure.
func TestFleetSmokeChaos(t *testing.T) {
	rep, err := Run(context.Background(), Config{
		Devices:       40,
		Tenants:       3,
		Duration:      4 * time.Second,
		Interval:      200 * time.Millisecond,
		ChaosAt:       1 * time.Second,
		HealAt:        2 * time.Second,
		StormAt:       500 * time.Millisecond,
		StormDuration: 3 * time.Second,
		StormFraction: 0.25,
		Diurnal:       true,
		Seed:          42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Uploads == 0 || rep.Successes == 0 {
		t.Fatalf("no traffic: %+v", rep)
	}
	if rep.Latency.P999Ms <= 0 || rep.Latency.P50Ms > rep.Latency.P999Ms {
		t.Fatalf("latency quantiles inconsistent: %+v", rep.Latency)
	}
	if rep.AnomalyLatency.Count == 0 {
		t.Fatal("storm produced no anomaly-priority uploads")
	}
	if rep.Chaos == nil {
		t.Fatal("chaos report missing")
	}
	if rep.Chaos.Drops == 0 && rep.Chaos.Severed == 0 {
		t.Fatal("partition never bit: no drops, no severed connections")
	}
	if rep.Errors == 0 {
		t.Fatal("a mid-run partition must surface upload errors")
	}
	if rep.DegradedFraction <= 0 {
		t.Fatal("degraded-time fraction is zero across a 1s partition")
	}
	if rep.Chaos.ReadoptedDevices == 0 {
		t.Fatal("no device readopted after the heal")
	}
	if rep.Chaos.ReadoptionMaxMs <= 0 || rep.Chaos.ReadoptionP50Ms > rep.Chaos.ReadoptionMaxMs {
		t.Fatalf("readoption figures inconsistent: %+v", rep.Chaos)
	}
	if rep.Cloud == nil || rep.Cloud.Requests == 0 && rep.Cloud.CacheHits == 0 {
		t.Fatalf("cloud snapshot missing or empty: %+v", rep.Cloud)
	}
	if rep.Client.Reconnects == 0 {
		t.Fatal("no client ever reconnected after the heal")
	}
	// The report must round-trip as JSON — it is a CI artifact.
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Uploads != rep.Uploads || back.Chaos.ReadoptedDevices != rep.Chaos.ReadoptedDevices {
		t.Fatal("report did not survive a JSON round trip")
	}
}

// TestFleetCrashRestartNoLoss: a mid-run hard restart of the
// in-process cloud — transport killed, registry abandoned, server
// rebuilt over the same snapshot and WAL directories — loses no
// acknowledged ingest.
func TestFleetCrashRestartNoLoss(t *testing.T) {
	rep, err := Run(context.Background(), Config{
		Devices:  12,
		Tenants:  2,
		Duration: 3 * time.Second,
		Interval: 100 * time.Millisecond,
		CrashAt:  1 * time.Second,
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Durability == nil {
		t.Fatal("durability report missing from a crash-restart run")
	}
	d := rep.Durability
	if d.IngestAcked == 0 {
		t.Fatal("crash run acked no ingests; nothing was tested")
	}
	if d.IngestLost != 0 {
		t.Fatalf("%d of %d acked ingests lost across the crash-restart", d.IngestLost, d.IngestAcked)
	}
	if d.IngestSurvived != d.IngestAcked {
		t.Fatalf("survival accounting inconsistent: %+v", d)
	}
	// The kill must have happened and bitten: one rebuilt server,
	// device connections severed, a measured recovery. Upload errors
	// are no evidence either way — the devices' backoff redial can
	// absorb the kill without one.
	if d.Restarts != 1 || d.RestartFailures != 0 {
		t.Fatalf("want exactly one successful restart: %+v", d)
	}
	if d.ConnsAtKill == 0 {
		t.Fatalf("the kill severed no device connection: %+v", d)
	}
	if d.RecoveryMs <= 0 {
		t.Fatalf("no recovery time measured: %+v", d)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Durability == nil || *back.Durability != *d {
		t.Fatal("durability report did not survive a JSON round trip")
	}
}

// TestFleetAdmissionControl: a deliberately saturated netsim run
// sheds routine uploads while anomaly traffic keeps flowing.
func TestFleetAdmissionControl(t *testing.T) {
	rep, err := Run(context.Background(), Config{
		Devices:       30,
		Tenants:       2,
		Duration:      3 * time.Second,
		Interval:      100 * time.Millisecond,
		Workers:       1,
		ShedQueue:     1,
		StormAt:       1 * time.Millisecond,
		StormDuration: time.Hour, // storm for the whole run
		StormFraction: 0.3,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed == 0 {
		t.Fatalf("saturated run shed nothing: %+v", rep)
	}
	if rep.AnomalyLatency.Count == 0 {
		t.Fatal("anomaly traffic did not flow under saturation")
	}
	if rep.Errors > rep.Uploads/2 {
		t.Fatalf("shedding should refuse cleanly, not error: %d errors of %d uploads", rep.Errors, rep.Uploads)
	}
}
