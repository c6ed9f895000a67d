package main

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"emap/internal/cloud"
	"emap/internal/mdb"
	"emap/internal/proto"
	"emap/internal/synth"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {1010, 99}, {1009, 99}, {1000, 99}, {999, 98}, {500, 98}, {384, 95},
		{200, 95}, {144, 90}, {100, 90}, {99, 80}, {90, 80}, {50, 80}, {40, 75}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && c.n-rank(p, c.n) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond", c.n, p, c.n-rank(p, c.n))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 99.9: 100, 0: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	r := &recorder{}
	for i := 100; i >= 1; i-- {
		r.addMs(float64(i))
	}
	s := summarize(r)
	if s.N != 100 || s.P50 != 50 || s.TailP != 90 || s.Tail != 90 || s.Mean != 50.5 {
		t.Errorf("summary %+v", s)
	}
	if s := summarize(&recorder{v: []float64{1, 2, 3}}); !math.IsNaN(s.Tail) {
		t.Errorf("tail of 3 samples = %v, want NaN", s.Tail)
	}
}

// A stall charges every request queued behind it: latencies run from
// the due time, not from when the request finally went out.
func TestDueTimeLatency(t *testing.T) {
	t0 := time.Unix(1000, 0)
	sch := schedule{start: t0, rate: 10}
	if d := sch.due(3).Sub(t0); d != 300*time.Millisecond {
		t.Fatalf("due(3) = %v after start, want 300ms", d)
	}
	// The server stalls until 250 ms, then answers everything at once.
	ends := []time.Duration{250, 260, 260}
	want := []time.Duration{250, 160, 60}
	for i := range ends {
		got := latency(sch.due(i), t0.Add(ends[i]*time.Millisecond))
		if got != want[i]*time.Millisecond {
			t.Errorf("request %d: latency %v, want %v", i, got, want[i]*time.Millisecond)
		}
	}
	// Generator lag: late sends count, early ones are zero.
	if l := lag(sch.due(2), t0.Add(230*time.Millisecond)); l != 30*time.Millisecond {
		t.Errorf("lag = %v, want 30ms", l)
	}
	if l := lag(sch.due(2), t0.Add(190*time.Millisecond)); l != 0 {
		t.Errorf("early send lag = %v, want 0", l)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, c := range []struct {
		kids []span
		want int64
	}{
		{nil, 100},
		{[]span{{Start: 10, End: 30}}, 80},
		// Overlapping children are counted once.
		{[]span{{Start: 10, End: 30}, {Start: 20, End: 50}, {Start: 70, End: 80}}, 50},
		// Children reaching outside the parent are clipped to it.
		{[]span{{Start: -10, End: 20}, {Start: 90, End: 130}}, 70},
		{[]span{{Start: 0, End: 100}}, 0},
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("selfTime(%v) = %d, want %d", c.kids, got, c.want)
		}
	}
}

func TestLinkAndLayerSelf(t *testing.T) {
	spans := []span{
		{Name: "loadgen.request", Key: "w1", Start: 0, End: 100},
		{Name: "edge.search", Key: "w1", Start: 5, End: 100},
		{Name: "router.search", Key: "w1", Start: 10, End: 95},
		{Name: "cloud.search", Key: "w1", Start: 20, End: 90},
		{Name: "cloud.search", Key: "w2", Start: 30, End: 40}, // another request
		{Name: "edge.ingest", Key: "ingest/t/r1", Start: 0, End: 60},
		{Name: "cloud.ingest", Key: "ingest/t/r1", Start: 10, End: 50},
		{Name: "cloud.replicate", Key: "replicate/t", Start: 30, End: 45},
	}
	link(spans)
	wantParent := []int{-1, 0, 1, 2, -1, -1, 5, 6}
	for i, s := range spans {
		if s.Parent != wantParent[i] {
			t.Errorf("%s/%s parent %d, want %d", s.Name, s.Key, s.Parent, wantParent[i])
		}
	}
	self := layerSelf(spans)
	for name, want := range map[string]float64{
		"loadgen.request": 5e-6, "edge.search": 10e-6, "router.search": 15e-6,
		"cloud.ingest": 25e-6, "cloud.replicate": 15e-6,
	} {
		if got := self[name][0]; math.Abs(got-want) > 1e-12 {
			t.Errorf("self %s = %v ms, want %v", name, got, want)
		}
	}
	// The layers' self times add up to the client-observed span.
	var sum float64
	for _, n := range []string{"loadgen.request", "edge.search", "router.search"} {
		sum += self[n][0]
	}
	sum += self["cloud.search"][0]
	if math.Abs(sum-100e-6) > 1e-12 {
		t.Errorf("self times sum to %v ms, want the 100 ns request", sum)
	}
}

func TestFrameScanner(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{7}, 3000)}
	proto.WriteFrameV3(&buf, proto.TypeUpload, 41, "ward-3", payloads[0])
	proto.WriteFrameV2(&buf, proto.TypePing, 42, payloads[1])
	proto.WriteFrameV3(&buf, proto.TypeCorrSet, 43, "", payloads[2])
	var got []frameInfo
	var kept [][]byte
	s := frameScanner{
		keep:    func(f frameInfo) bool { return f.ID != 42 },
		onFrame: func(f frameInfo, p []byte) { got = append(got, f); kept = append(kept, p) },
	}
	rnd := rand.New(rand.NewSource(1))
	b := buf.Bytes()
	for len(b) > 0 {
		n := min(1+rnd.Intn(7), len(b))
		s.feed(b[:n])
		b = b[n:]
	}
	if len(got) != 3 {
		t.Fatalf("scanned %d frames, want 3", len(got))
	}
	for i, f := range got {
		if f.ID != uint32(41+i) || f.Size != len(payloads[i]) {
			t.Errorf("frame %d: %+v", i, f)
		}
	}
	if !bytes.Equal(kept[0], payloads[0]) || kept[1] != nil || !bytes.Equal(kept[2], payloads[2]) {
		t.Errorf("kept payloads wrong")
	}
}

// gateFixture serves one real search from a small store in process.
func gateFixture(t *testing.T) (*mdb.Store, []int16, float32, *proto.CorrSet, *cloud.Engine) {
	t.Helper()
	g := synth.NewGenerator(synth.Config{Seed: 3, ArchetypesPerClass: 2})
	store, err := mdb.Build(corpus(g, 2, 1), mdb.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg, err := mdb.NewRegistry("", 0)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cloud.NewEngine(reg, cloud.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Adopt("ward", store); err != nil {
		t.Fatal(err)
	}
	// A window cut from a stored recording is sure to match.
	rec, _ := store.Record(store.RecordIDs()[0])
	counts, scale := proto.Quantize(rec.Samples[3000 : 3000+windowLen])
	cs, err := eng.SearchTenant("ward", &proto.Upload{Scale: scale, Samples: counts})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Entries) == 0 {
		t.Fatal("fixture search matched nothing")
	}
	return store, counts, scale, cs, eng
}

func TestGateAcceptsServedReply(t *testing.T) {
	store, counts, scale, cs, eng := gateFixture(t)
	if err := gateSearch(store, eng.Config().Search, horizonSamples, counts, scale, cs,
		[]int{store.NumSets()}, omegaTolFloat); err != nil {
		t.Fatalf("a served reply fails the gate: %v", err)
	}
	// An older epoch candidate that does not match is skipped as long
	// as one candidate does.
	if err := gateSearch(store, eng.Config().Search, horizonSamples, counts, scale, cs,
		[]int{1, store.NumSets()}, omegaTolFloat); err != nil {
		t.Fatalf("gate with an extra epoch candidate: %v", err)
	}
}

func TestGateRejectsCorruptReply(t *testing.T) {
	store, counts, scale, cs, eng := gateFixture(t)
	corrupt := map[string]func(c *proto.CorrSet){
		"offset":  func(c *proto.CorrSet) { c.Entries[0].Beta++ },
		"set":     func(c *proto.CorrSet) { c.Entries[0].SetID = (c.Entries[0].SetID + 1) % int32(store.NumSets()) },
		"omega":   func(c *proto.CorrSet) { c.Entries[0].Omega -= 0.01 },
		"label":   func(c *proto.CorrSet) { c.Entries[0].Anomalous = !c.Entries[0].Anomalous },
		"dropped": func(c *proto.CorrSet) { c.Entries = c.Entries[1:] },
		"samples": func(c *proto.CorrSet) { c.Entries[0].Samples[10] += 50 },
		"short":   func(c *proto.CorrSet) { c.Entries[0].Samples = c.Entries[0].Samples[:windowLen] },
	}
	for name, f := range corrupt {
		// Round-trip through the wire encoding to corrupt a private copy.
		c, err := proto.DecodeCorrSet(proto.EncodeCorrSet(cs))
		if err != nil {
			t.Fatal(err)
		}
		f(c)
		if err := gateSearch(store, eng.Config().Search, horizonSamples, counts, scale, c,
			[]int{store.NumSets()}, omegaTolFloat); err == nil {
			t.Errorf("%s corruption passes the gate", name)
		}
	}
}

func TestGateRejectsMissingIngest(t *testing.T) {
	store, _, _, _, _ := gateFixture(t)
	ids := store.RecordIDs()
	if missing := gateIngests(store, ids); len(missing) != 0 {
		t.Fatalf("present records reported missing: %v", missing)
	}
	missing := gateIngests(store, append(ids[:1:1], "never-stored"))
	if len(missing) != 1 || missing[0] != "never-stored" {
		t.Fatalf("missing = %v, want [never-stored]", missing)
	}
	if missing := gateIngests(nil, ids[:2]); len(missing) != 2 {
		t.Fatalf("a missing store must fail every acked ingest, got %v", missing)
	}
}

func TestPushStart(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	// Idle slot, the generator woke 2 ms late: latency starts at the push.
	if got := pushStart(ms(100), ms(102), ms(50)); !got.Equal(ms(102)) {
		t.Errorf("idle slot: start %v", got.Sub(t0))
	}
	// Busy slot: the previous push overran the due time by 30 ms, so the
	// wait counts from the due time.
	if got := pushStart(ms(100), ms(130), ms(130)); !got.Equal(ms(100)) {
		t.Errorf("busy slot: start %v", got.Sub(t0))
	}
}

// A push into an idle slot starts when it is due, so its request span
// and its push span cover the same interval; the request, recorded
// first, is the parent, and the pair is counted once.
func TestLinkEqualIntervals(t *testing.T) {
	spans := []span{
		{Name: "loadgen.request", Key: "push/0/1", Start: 10, End: 20},
		{Name: "edge.push", Key: "push/0/1", Start: 10, End: 20},
	}
	link(spans)
	if spans[0].Parent != -1 || spans[1].Parent != 0 {
		t.Fatalf("parents %d, %d; want -1, 0", spans[0].Parent, spans[1].Parent)
	}
	self := layerSelf(spans)
	if self["loadgen.request"][0] != 0 || self["edge.push"][0] != 10e-6 {
		t.Fatalf("self times %v", self)
	}
}
