package main

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"emap/internal/cloud"
	"emap/internal/edge"
	"emap/internal/mdb"
	"emap/internal/proto"
	"emap/internal/synth"
)

// ward_search: one tenant holding a full synthetic mega-database,
// built and served with the cloud's default settings, answering
// distinct held-out windows on two pipelined connections. Phase open
// sends at a fixed rate well below capacity; phase closed keeps a fixed
// number of requests in flight per connection.
const (
	wardArchetypes = 8
	wardInstances  = 3
	wardTenant     = "ward"
	wardOpenRate   = 4.5 // uploads per second, both connections together
	wardOpenShare  = 0.7 // share of the run in phase open; the rest is closed
	wardDepth      = 4   // closed phase: requests in flight per connection
	wardBlocks     = 4   // rounds of open then closed per run
	conns          = 2
	gateEvery      = 16 // one sampled answer in gateEvery is checked
	horizonSamples = 8 * rate
)

type wardSearch struct {
	recs    []*synth.Recording
	windows [][]float64
	openN   int
	gate    func(i int) bool
}

// gateSampler selects a seeded 1/gateEvery sample of request indices.
func gateSampler(seed int64) func(i int) bool {
	off := int(uint64(seed) % gateEvery)
	return func(i int) bool { return (i+off)%gateEvery == 0 }
}

func (w *wardSearch) prepare(o options) {
	g := synth.NewGenerator(synth.Config{Seed: storeSeed, ArchetypesPerClass: wardArchetypes})
	w.recs = corpus(g, wardArchetypes, wardInstances)
	w.openN = int(wardOpenRate*o.seconds*wardOpenShare) / wardBlocks * wardBlocks
	// Closed-phase capacity on two cores is ≈20/s; 80/s of distinct
	// windows leaves ample room without ever repeating one.
	w.windows = uploadWindows(g, rand.New(rand.NewSource(o.seed)), wardArchetypes, w.openN+int(80*o.seconds*(1-wardOpenShare))+conns)
	w.gate = gateSampler(o.seed)
}

type wardInstance struct {
	w       *wardSearch
	store   *mdb.Store
	eng     *cloud.Engine
	srv     *server
	clients []*edge.Client
}

func (w *wardSearch) setup(o options, tr *tracer, dir string) (instance, error) {
	store, err := mdb.Build(w.recs, mdb.DefaultBuildConfig())
	if err != nil {
		return nil, err
	}
	reg, err := mdb.NewRegistry("", 0)
	if err != nil {
		return nil, err
	}
	cfg := cloud.Config{}
	eng, err := cloud.NewEngine(reg, cfg)
	if err != nil {
		return nil, err
	}
	if err := reg.Adopt(wardTenant, store); err != nil {
		return nil, err
	}
	srv, err := serve("cloud", eng, eng.Config().TransportConfig(&eng.Metrics), tr)
	if err != nil {
		return nil, err
	}
	in := &wardInstance{w: w, store: store, eng: eng, srv: srv}
	for c := 0; c < conns; c++ {
		cl, err := dial(srv.addr(), wardTenant, nil)
		if err != nil {
			in.close()
			return nil, err
		}
		in.clients = append(in.clients, cl)
		// The tenant's serving state (searcher, kernel plans) is
		// built lazily by the first request; pay it here.
		if _, err := cl.Search(context.Background(), w.windows[len(w.windows)-1-c]); err != nil {
			in.close()
			return nil, err
		}
	}
	return in, nil
}

func (in *wardInstance) close() {
	for _, c := range in.clients {
		c.Close()
	}
	in.srv.close()
	in.eng.Stop()
}

// sampled is one answer kept for the correctness gate.
type sampled struct {
	window []float64
	cs     *proto.CorrSet
	sizes  []int // candidate store epochs (set counts) it may come from
	conn   int
}

func (in *wardInstance) measure(o options, tr *tracer) *outcome {
	w := in.w
	out := &outcome{}
	var gateMu sync.Mutex
	var gates []sampled
	var attempted atomic.Int64
	search := func(i int, cl *edge.Client, window []float64, due time.Time, lat *recorder) {
		attempted.Add(1)
		sent := time.Now()
		cs, err := cl.SearchPri(context.Background(), window, proto.PriRoutine)
		end := time.Now()
		if err != nil {
			gateMu.Lock()
			out.fail("search %d: %v", i, err)
			gateMu.Unlock()
			return
		}
		lat.add(latency(due, end))
		if tr.on.Load() {
			key := windowKey(quantized(window))
			tr.add("loadgen.request", key, due, end)
			tr.add("edge.search", key, sent, end)
		}
		if w.gate(i) {
			gateMu.Lock()
			gates = append(gates, sampled{window: window, cs: cs})
			gateMu.Unlock()
		}
	}

	// The box's capacity drifts over seconds, so the run alternates the
	// phases in wardBlocks rounds: each phase's samples then come from
	// the whole run rather than one stretch of it.
	before := readCounters(in.eng, wardTenant)
	var open, lags, closed recorder
	var openBatch, closedBatch [2]int64 // batches, batched requests
	var next atomic.Int64
	next.Store(int64(w.openN))
	var done atomic.Int64
	var closedSecs float64
	per := w.openN / wardBlocks
	var wg sync.WaitGroup
	for b := 0; b < wardBlocks; b++ {
		// Phase open: request i is due at i/rate on connection i%conns.
		c0 := readCounters(in.eng, wardTenant)
		sch := schedule{start: time.Now().Add(10 * time.Millisecond), rate: wardOpenRate}
		for k := 0; k < per; k++ {
			i := b*per + k
			due := sch.due(k)
			sleepUntil(due)
			lags.add(lag(due, time.Now()))
			wg.Add(1)
			go func() {
				defer wg.Done()
				search(i, in.clients[i%conns], w.windows[i], due, &open)
			}()
		}
		wg.Wait()
		c1 := readCounters(in.eng, wardTenant)

		// Phase closed: wardDepth requests in flight per connection; each
		// worker sends its next window as soon as its previous reply lands.
		start := time.Now()
		deadline := start.Add(time.Duration(o.seconds * (1 - wardOpenShare) / wardBlocks * float64(time.Second)))
		for c := 0; c < conns; c++ {
			for k := 0; k < wardDepth; k++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for time.Now().Before(deadline) {
						i := int(next.Add(1) - 1)
						if i >= len(w.windows)-conns {
							return
						}
						search(i, in.clients[c], w.windows[i], time.Now(), &closed)
						if time.Now().Before(deadline) {
							done.Add(1)
						}
					}
				}()
			}
		}
		wg.Wait()
		closedSecs += deadline.Sub(start).Seconds()
		c2 := readCounters(in.eng, wardTenant)
		openBatch[0] += c1.cloud.Batches - c0.cloud.Batches
		openBatch[1] += c1.cloud.BatchedRequests - c0.cloud.BatchedRequests
		closedBatch[0] += c2.cloud.Batches - c1.cloud.Batches
		closedBatch[1] += c2.cloud.BatchedRequests - c1.cloud.BatchedRequests
	}
	after := readCounters(in.eng, wardTenant)

	out.attempted = int(attempted.Load())
	out.primary = summarize(&open)
	out.aux = summarize(&closed)
	// The closed phase's figure is its mean latency: at a fixed
	// in-flight depth it is depth/throughput (Little's law), while its
	// median swings with how the batches happen to form.
	out.auxValue = out.aux.Mean
	rps := float64(done.Load()) / closedSecs
	out.named = append(latencyMetrics("search", out.primary),
		metric{Name: "search_rps", Unit: "1/s", Value: rps, N: int(done.Load())},
		metric{Name: "closed_search_mean_ms", Unit: "ms", Value: out.aux.Mean, N: out.aux.N},
		metric{Name: "batch_size_open", Unit: "ratio", Value: ratioF(float64(openBatch[1]), float64(openBatch[0]))},
		metric{Name: "batch_size_closed", Unit: "ratio", Value: ratioF(float64(closedBatch[1]), float64(closedBatch[0]))})

	for _, g := range gates {
		counts, scale := proto.Quantize(g.window)
		if err := gateSearch(in.store, in.eng.Config().Search, horizonSamples, counts, scale, g.cs,
			[]int{in.store.NumSets()}, omegaTolFloat); err != nil {
			out.fail("search reply: %v", err)
		}
		out.gated++
	}

	if tr.on.Load() {
		spans := tr.snapshot()
		open := primaryKeys(w.windows[:w.openN])
		layers, self := spanLayers(spans, func(k string) bool { return open[k] }, in.srv.h)
		lagS := summarize(&lags)
		out.layers = append([]metric{
			{Name: "loadgen.lag_tail_ms", Unit: "ms", Value: nanTo0(lagS.Tail), N: lagS.N},
			{Name: "loadgen.sent", Unit: "count", Value: float64(out.attempted)},
			{Name: "edge.push_ms", Unit: "ms"},
			{Name: "edge.recalls_per_window", Unit: "ratio"},
			{Name: "edge.reconnects", Unit: "count", Value: float64(reconnects(in.clients))},
			{Name: "track.signals_per_window", Unit: "count"},
		}, layers...)
		out.layers = append(out.layers, serverLayers(before, after, 8)...)
		out.layers = append(out.layers, noCluster()...)
		out.selfMs = self
	}
	return out
}

// primaryKeys returns the request keys of the given windows.
func primaryKeys(windows [][]float64) map[string]bool {
	keys := make(map[string]bool, len(windows))
	for _, w := range windows {
		keys[windowKey(quantized(w))] = true
	}
	return keys
}

func quantized(window []float64) []int16 {
	c, _ := proto.Quantize(window)
	return c
}

func reconnects(clients []*edge.Client) int64 {
	var n int64
	for _, c := range clients {
		n += c.Metrics.Snapshot().Reconnects
	}
	return n
}

// noCluster lists the cluster metrics of a workload without a cluster.
func noCluster() []metric {
	return []metric{
		{Name: "cluster.replicate_bytes", Unit: "B"},
		{Name: "cluster.replications_per_ingest", Unit: "ratio"},
		{Name: "cluster.moved_retries", Unit: "count"},
	}
}
