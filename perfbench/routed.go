package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"emap/internal/cloud"
	"emap/internal/cluster"
	"emap/internal/edge"
	"emap/internal/mdb"
	"emap/internal/proto"
	"emap/internal/synth"
)

// routed_ingest: a cluster.Router in front of two cluster.Nodes that
// journal ingests to a WAL under the server's default fsync policy and
// keep columnar (quantized) stores under a small hot-byte budget. Two
// tenants, one per owner node, one per connection: on each connection
// short recordings are ingested at a fixed rate while windows are
// uploaded at a fixed rate, so writes run beside reads on one tenant.
const (
	routedArchetypes = 4
	routedSeeds      = 24  // recordings ingested per tenant during set-up
	routedSeedSecs   = 90  // seconds per seed recording
	routedIngestSecs = 8   // seconds per measured ingest, like the fleet's
	routedIngestRate = 2.0 // ingests per second per connection
	routedSearchRate = 5.0 // uploads per second per connection
	routedHotBytes   = 256 << 10
)

type routedIngest struct {
	seeds   [][]*proto.Ingest // per tenant
	ingests [][]*proto.Ingest // per tenant, measured
	windows [][][]float64     // per tenant, measured uploads
	gate    func(i int) bool
}

// preprocessed turns a raw recording into the ingest a device pushes:
// band-passed at the base rate and quantized.
func preprocessed(raw *synth.Recording, id string) *proto.Ingest {
	rec, err := mdb.Preprocess(raw, mdb.DefaultBuildConfig(), nil)
	if err != nil {
		panic(err)
	}
	counts, scale := proto.Quantize(rec.Samples)
	return &proto.Ingest{RecordID: id, Class: uint8(rec.Class), Archetype: uint16(rec.Archetype),
		Onset: int32(rec.Onset), Scale: scale, Samples: counts}
}

func (r *routedIngest) prepare(o options) {
	g := synth.NewGenerator(synth.Config{Seed: storeSeed, ArchetypesPerClass: routedArchetypes})
	rnd := rand.New(rand.NewSource(o.seed))
	nIngest := int(routedIngestRate * o.seconds)
	nSearch := int(routedSearchRate * o.seconds)
	all := uploadWindows(g, rnd, routedArchetypes, conns*nSearch)
	for t := 0; t < conns; t++ {
		var seeds, ingests []*proto.Ingest
		for i := 0; i < routedSeeds; i++ {
			class := synth.Classes[i%len(synth.Classes)]
			off := (i / len(synth.Classes)) * (synth.NormalDur - routedSeedSecs) * rate / (routedSeeds / len(synth.Classes))
			raw := g.Instance(class, (i/len(synth.Classes))%routedArchetypes, synth.InstanceOpts{OffsetSamples: off, DurSeconds: routedSeedSecs})
			seeds = append(seeds, preprocessed(raw, fmt.Sprintf("seed-%d", i)))
		}
		for i := 0; i < nIngest; i++ {
			class := synth.Classes[rnd.Intn(len(synth.Classes))]
			raw := heldOut(g, rnd, class, rnd.Intn(routedArchetypes), routedIngestSecs)
			ingests = append(ingests, preprocessed(raw, fmt.Sprintf("rec-%d", i)))
		}
		r.seeds = append(r.seeds, seeds)
		r.ingests = append(r.ingests, ingests)
		r.windows = append(r.windows, all[t*nSearch:(t+1)*nSearch])
	}
	r.gate = gateSampler(o.seed)
}

type routedInstance struct {
	r       *routedIngest
	nodes   []*cluster.Node
	regs    []*mdb.Registry
	nodeSrv []*server
	router  *cluster.Router
	rtrSrv  *server
	tenants []string // tenant on connection c, owned by nodes[owner[c]]
	owner   []int
	clients []*edge.Client
}

func (r *routedIngest) setup(o options, tr *tracer, dir string) (instance, error) {
	in := &routedInstance{r: r}
	var members []proto.RingNode
	for _, id := range []string{"node-a", "node-b"} {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			in.close()
			return nil, err
		}
		reg, err := mdb.NewRegistry(filepath.Join(dir, id, "snap"), 0)
		if err != nil {
			l.Close()
			in.close()
			return nil, err
		}
		cfg := cloud.Config{
			WALDir:      filepath.Join(dir, id, "wal"),
			StoreFormat: mdb.FormatColumnar,
			HotBytes:    routedHotBytes,
		}
		node, err := cluster.NewNode(reg, cluster.NodeConfig{ID: id, Addr: l.Addr().String(), Cloud: cfg})
		if err != nil {
			l.Close()
			reg.Close()
			in.close()
			return nil, err
		}
		in.regs = append(in.regs, reg)
		in.nodes = append(in.nodes, node)
		in.nodeSrv = append(in.nodeSrv, serveOn(l, "cloud", node, cfg.TransportConfig(&node.Engine().Metrics), tr))
		members = append(members, proto.RingNode{ID: id, Addr: l.Addr().String()})
	}
	in.router = cluster.NewRouter(cluster.RouterConfig{})
	srv, err := serve("router", in.router, cloud.TransportConfig{Metrics: &in.router.Metrics}, tr)
	if err != nil {
		in.close()
		return nil, err
	}
	in.rtrSrv = srv
	if err := in.router.SetNodes(context.Background(), members); err != nil {
		in.close()
		return nil, err
	}
	// One tenant per owner node: the first ward names the ring homes on
	// each node.
	ring := in.router.Ring()
	for k := range members {
		for i := 0; ; i++ {
			t := fmt.Sprintf("ward-%d", i)
			if o, _ := ring.Owner(t); o.ID == members[k].ID {
				in.tenants = append(in.tenants, t)
				in.owner = append(in.owner, k)
				break
			}
		}
	}
	for c, t := range in.tenants {
		cl, err := dial(in.rtrSrv.addr(), t, nil)
		if err != nil {
			in.close()
			return nil, err
		}
		in.clients = append(in.clients, cl)
		for _, seed := range r.seeds[c] {
			if _, err := cl.Ingest(context.Background(), seed); err != nil {
				in.close()
				return nil, fmt.Errorf("seeding %s: %w", t, err)
			}
		}
		if _, err := cl.Search(context.Background(), r.windows[c][len(r.windows[c])-1]); err != nil {
			in.close()
			return nil, err
		}
	}
	return in, nil
}

func (in *routedInstance) close() {
	for _, c := range in.clients {
		c.Close()
	}
	if in.rtrSrv != nil {
		in.rtrSrv.close()
	}
	if in.router != nil {
		in.router.Close()
	}
	for i, s := range in.nodeSrv {
		s.close()
		in.nodes[i].Close()
	}
	for _, reg := range in.regs {
		reg.Close()
	}
}

// store returns the live store of connection c's tenant on its owner.
func (in *routedInstance) store(c int) *mdb.Store {
	s, _ := in.regs[in.owner[c]].Get(in.tenants[c])
	return s
}

func (in *routedInstance) counters() counters {
	var c counters
	for k, n := range in.nodes {
		var ts []string
		for i, t := range in.tenants {
			if in.owner[i] == k {
				ts = append(ts, t)
			}
		}
		c = c.add(readCounters(n.Engine(), ts...))
	}
	return c
}

func (in *routedInstance) replications() int64 {
	var n int64
	for _, node := range in.nodes {
		n += node.Metrics.Replications.Load()
	}
	return n
}

func (in *routedInstance) measure(o options, tr *tracer) *outcome {
	r := in.r
	out := &outcome{}
	before := in.counters()
	replBefore := in.replications()
	movedBefore := in.router.Routing.MovedRetries.Load()
	var mu sync.Mutex
	var gates []sampled
	var acked [conns][]string
	var attempted atomic.Int64
	var searches, ingests, lags recorder
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for c := range in.tenants {
		cl := in.clients[c]
		// Uploads and ingests run on their own open-loop timetables,
		// offset by half a period from the other connection's.
		upSch := schedule{start: start.Add(time.Duration(float64(c) / conns / routedSearchRate * float64(time.Second))), rate: routedSearchRate}
		ingSch := schedule{start: start.Add(time.Duration(float64(c) / conns / routedIngestRate * float64(time.Second))), rate: routedIngestRate}
		wg.Add(2)
		go func() {
			defer wg.Done()
			var reqs sync.WaitGroup
			for i, window := range r.windows[c] {
				due := upSch.due(i)
				sleepUntil(due)
				lags.add(lag(due, time.Now()))
				reqs.Add(1)
				go func() {
					defer reqs.Done()
					attempted.Add(1)
					sizeBefore := in.store(c).NumSets()
					sent := time.Now()
					cs, err := cl.SearchPri(context.Background(), window, proto.PriRoutine)
					end := time.Now()
					if err != nil {
						mu.Lock()
						out.fail("search %s/%d: %v", in.tenants[c], i, err)
						mu.Unlock()
						return
					}
					searches.add(latency(due, end))
					if tr.on.Load() {
						key := windowKey(quantized(window))
						tr.add("loadgen.request", key, due, end)
						tr.add("edge.search", key, sent, end)
					}
					if r.gate(i) {
						var sizes []int
						for n := sizeBefore; n <= in.store(c).NumSets(); n++ {
							sizes = append(sizes, n)
						}
						mu.Lock()
						gates = append(gates, sampled{window: window, cs: cs, sizes: sizes, conn: c})
						mu.Unlock()
					}
				}()
			}
			reqs.Wait()
		}()
		go func() {
			defer wg.Done()
			var reqs sync.WaitGroup
			for i, ing := range r.ingests[c] {
				due := ingSch.due(i)
				sleepUntil(due)
				lags.add(lag(due, time.Now()))
				reqs.Add(1)
				go func() {
					defer reqs.Done()
					attempted.Add(1)
					sent := time.Now()
					_, err := cl.Ingest(context.Background(), ing)
					end := time.Now()
					if err != nil {
						mu.Lock()
						out.fail("ingest %s/%s: %v", in.tenants[c], ing.RecordID, err)
						mu.Unlock()
						return
					}
					ingests.add(latency(due, end))
					if tr.on.Load() {
						key := ingestKey(in.tenants[c], ing.RecordID)
						tr.add("loadgen.ingest", key, due, end)
						tr.add("edge.ingest", key, sent, end)
					}
					mu.Lock()
					acked[c] = append(acked[c], ing.RecordID)
					mu.Unlock()
				}()
			}
			reqs.Wait()
		}()
	}
	wg.Wait()
	after := in.counters()

	out.attempted = int(attempted.Load())
	for c := range in.tenants {
		for _, id := range gateIngests(in.store(c), acked[c]) {
			out.fail("acked ingest %s/%s missing from its owner's store", in.tenants[c], id)
		}
	}
	for _, g := range gates {
		counts, scale := proto.Quantize(g.window)
		if err := gateSearch(in.store(g.conn), in.nodes[in.owner[g.conn]].Engine().Config().Search,
			horizonSamples, counts, scale, g.cs, g.sizes, omegaTolQuant); err != nil {
			out.fail("search reply: %v", err)
		}
		out.gated++
	}

	out.primary = summarize(&searches)
	out.aux = summarize(&ingests)
	out.auxValue = out.aux.P50
	out.named = append(latencyMetrics("search", out.primary), latencyMetrics("ingest", out.aux)...)

	if tr.on.Load() {
		spans := tr.snapshot()
		keys := map[string]bool{}
		for c := range in.tenants {
			for k := range primaryKeys(r.windows[c]) {
				keys[k] = true
			}
		}
		layers, self := spanLayers(spans, func(k string) bool { return keys[k] }, in.rtrSrv.h)
		lagS := summarize(&lags)
		var replFrames, replBytes int64
		for _, s := range in.nodeSrv {
			c := s.h.counts[proto.TypeReplicate]
			replFrames += c.frames.Load()
			replBytes += c.bytesIn.Load()
		}
		nIngests := float64(after.cloud.Ingests - before.cloud.Ingests)
		out.layers = append([]metric{
			{Name: "loadgen.lag_tail_ms", Unit: "ms", Value: nanTo0(lagS.Tail), N: lagS.N},
			{Name: "loadgen.sent", Unit: "count", Value: float64(out.attempted)},
			{Name: "edge.push_ms", Unit: "ms"},
			{Name: "edge.recalls_per_window", Unit: "ratio"},
			{Name: "edge.reconnects", Unit: "count", Value: float64(reconnects(in.clients))},
			{Name: "track.signals_per_window", Unit: "count"},
		}, layers...)
		out.layers = append(out.layers, serverLayers(before, after, 2)...)
		out.layers = append(out.layers,
			metric{Name: "cluster.replicate_bytes", Unit: "B", Value: ratioF(float64(replBytes), float64(replFrames)), N: int(replFrames)},
			metric{Name: "cluster.replications_per_ingest", Unit: "ratio", Value: ratioF(float64(in.replications()-replBefore), nIngests)},
			metric{Name: "cluster.moved_retries", Unit: "count", Value: float64(in.router.Routing.MovedRetries.Load() - movedBefore)},
		)
		out.selfMs = self
	}
	return out
}
