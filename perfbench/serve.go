package main

import (
	"context"
	"net"
	"time"

	"emap/internal/cloud"
	"emap/internal/edge"
	"emap/internal/mdb"
	"emap/internal/proto"
	"emap/internal/wal"
)

// server is one frame handler put on a loopback listener through its
// own cloud.Transport, with a timing wrapper at the transport→handler
// boundary.
type server struct {
	h    *timedHandler
	tr   *cloud.Transport
	l    net.Listener
	done chan struct{}
}

func serve(layer string, h cloud.FrameHandler, tc cloud.TransportConfig, tr *tracer) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return serveOn(l, layer, h, tc, tr), nil
}

// serveOn is serve on an existing listener, for handlers that must
// know their address before they exist.
func serveOn(l net.Listener, layer string, h cloud.FrameHandler, tc cloud.TransportConfig, tr *tracer) *server {
	s := &server{h: newTimedHandler(layer, h, tr), l: l, done: make(chan struct{})}
	s.tr = cloud.NewTransport(s.h, tc)
	go func() {
		defer close(s.done)
		s.tr.Serve(l)
	}()
	return s
}

func (s *server) addr() string { return s.l.Addr().String() }

// close drains the transport and waits for its accept loop to end.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.tr.Shutdown(ctx)
	s.tr.Close()
	<-s.done
}

// dial opens one pipelined client connection for a tenant, observed by
// tap when there is one.
func dial(addr, tenant string, tap *wireTap) (*edge.Client, error) {
	opts := edge.ClientOptions{Tenant: tenant, DialTimeout: 5 * time.Second}
	if tap != nil {
		opts.Dialer = func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			c, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			return tap.wrap(c), nil
		}
	}
	return edge.DialOpts(addr, opts)
}

// counters is a point-in-time reading of every counter the program's
// layers export, for one engine and the tenants it serves.
type counters struct {
	cloud cloud.MetricsSnapshot
	wal   wal.MetricsSnapshot
	tiers mdb.TierStats
	sets  int
}

func readCounters(eng *cloud.Engine, tenants ...string) counters {
	c := counters{cloud: eng.Metrics.Snapshot(), wal: eng.Registry().WALMetrics().Snapshot()}
	for _, t := range tenants {
		if st, ok := eng.StoreStatsFor(t); ok {
			c.tiers.HotBytes += st.HotBytes
			c.tiers.WarmBytes += st.WarmBytes
			c.tiers.ColdBytes += st.ColdBytes
			c.tiers.Promotions += st.Promotions
			c.tiers.Demotions += st.Demotions
		}
		if s, ok := eng.Registry().Get(t); ok {
			c.sets += s.NumSets()
		}
	}
	return c
}

func (c counters) add(o counters) counters {
	c.cloud = addCloud(c.cloud, o.cloud)
	c.wal.Appends += o.wal.Appends
	c.wal.AppendedBytes += o.wal.AppendedBytes
	c.wal.Syncs += o.wal.Syncs
	c.wal.SyncNanos += o.wal.SyncNanos
	c.tiers.HotBytes += o.tiers.HotBytes
	c.tiers.WarmBytes += o.tiers.WarmBytes
	c.tiers.ColdBytes += o.tiers.ColdBytes
	c.tiers.Promotions += o.tiers.Promotions
	c.tiers.Demotions += o.tiers.Demotions
	c.sets += o.sets
	return c
}

func addCloud(a, b cloud.MetricsSnapshot) cloud.MetricsSnapshot {
	a.Requests += b.Requests
	a.Errors += b.Errors
	a.PeakInFlight = max(a.PeakInFlight, b.PeakInFlight)
	a.RateLimited += b.RateLimited
	a.Shed += b.Shed
	a.Batches += b.Batches
	a.BatchedRequests += b.BatchedRequests
	a.CacheHits += b.CacheHits
	a.CacheMisses += b.CacheMisses
	a.Evaluations += b.Evaluations
	a.Ingests += b.Ingests
	return a
}

// serverLayers derives the cloud, search/kernel, mdb and wal metrics
// of a pass from the counters read before and after it. The kernel
// figures are computed, not measured: every ω evaluation is one
// window-length dot product, reading window × bytesPerSample stored
// bytes (8 for float64 records, 2 for quantized ones).
func serverLayers(before, after counters, bytesPerSample float64) []metric {
	d := func(a, b int64) float64 { return float64(b - a) }
	bc, ac := before.cloud, after.cloud
	scans := d(bc.BatchedRequests, ac.BatchedRequests)
	evals := ratioF(d(bc.Evaluations, ac.Evaluations), scans)
	appends := d(before.wal.Appends, after.wal.Appends)
	return []metric{
		{Name: "cloud.batch_size_mean", Unit: "ratio", Value: ratioF(scans, d(bc.Batches, ac.Batches))},
		{Name: "cloud.cache_hit_ratio", Unit: "ratio", Value: ratioF(d(bc.CacheHits, ac.CacheHits),
			d(bc.CacheHits+bc.CacheMisses, ac.CacheHits+ac.CacheMisses))},
		{Name: "cloud.peak_in_flight", Unit: "count", Value: float64(ac.PeakInFlight)},
		{Name: "cloud.refused", Unit: "count", Value: d(bc.RateLimited+bc.Shed, ac.RateLimited+ac.Shed)},
		{Name: "cloud.errors", Unit: "count", Value: d(bc.Errors, ac.Errors)},
		{Name: "search.evals_per_scan", Unit: "count", Value: evals},
		{Name: "kernel.macs_per_scan", Unit: "count", Value: evals * windowLen},
		{Name: "kernel.bytes_per_scan", Unit: "B", Value: evals * windowLen * bytesPerSample},
		{Name: "mdb.sets", Unit: "count", Value: float64(after.sets)},
		{Name: "mdb.resident_bytes", Unit: "B", Value: float64(after.tiers.HotBytes + after.tiers.WarmBytes)},
		{Name: "mdb.promotions", Unit: "count", Value: d(before.tiers.Promotions, after.tiers.Promotions)},
		{Name: "mdb.demotions", Unit: "count", Value: d(before.tiers.Demotions, after.tiers.Demotions)},
		{Name: "wal.appends", Unit: "count", Value: appends},
		{Name: "wal.bytes_per_append", Unit: "B", Value: ratioF(d(before.wal.AppendedBytes, after.wal.AppendedBytes), appends)},
		{Name: "wal.sync_ms_per_append", Unit: "ms", Value: ratioF(d(before.wal.SyncNanos, after.wal.SyncNanos)/1e6, appends)},
	}
}

func ratioF(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanLayers derives the span-based metrics shared by every workload,
// and the mean self time per layer over the primary population's
// requests (those whose key primary accepts), for the unaccounted
// share.
func spanLayers(spans []span, primary func(key string) bool, handlers ...*timedHandler) ([]metric, map[string]float64) {
	self := layerSelf(spans)
	dur := durations(spans)
	var upFrames, upBytes, downBytes int64
	for _, h := range handlers {
		c := h.counts[proto.TypeUpload]
		upFrames += c.frames.Load()
		upBytes += c.bytesIn.Load()
		downBytes += c.bytesOut.Load()
	}
	serve := summarize(&recorder{v: append([]float64(nil), dur["cloud.search"]...)})
	var own []span
	for _, s := range spans {
		if primary(s.Key) {
			s.Parent = -1
			own = append(own, s)
		}
	}
	link(own)
	ownSelf := layerSelf(own)
	return []metric{
			{Name: "edge.search_rtt_ms", Unit: "ms", Value: mean(dur["edge.search"]), N: len(dur["edge.search"])},
			{Name: "edge.ingest_rtt_ms", Unit: "ms", Value: mean(dur["edge.ingest"]), N: len(dur["edge.ingest"])},
			{Name: "transport.self_ms", Unit: "ms", Value: mean(self["edge.search"]), N: len(self["edge.search"])},
			{Name: "proto.upload_bytes", Unit: "B", Value: ratioF(float64(upBytes), float64(upFrames))},
			{Name: "proto.reply_bytes", Unit: "B", Value: ratioF(float64(downBytes), float64(upFrames))},
			{Name: "cloud.serve_ms", Unit: "ms", Value: serve.Mean, N: serve.N},
			{Name: "cloud.serve_tail_ms", Unit: "ms", Value: nanTo0(serve.Tail), N: serve.N},
			{Name: "cloud.ingest_serve_ms", Unit: "ms", Value: mean(self["cloud.ingest"]), N: len(self["cloud.ingest"])},
			{Name: "cluster.router_self_ms", Unit: "ms", Value: mean(self["router.search"]), N: len(self["router.search"])},
			{Name: "cluster.replicate_ms", Unit: "ms", Value: mean(dur["cloud.replicate"]), N: len(dur["cloud.replicate"])},
		}, map[string]float64{
			"loadgen": mean(ownSelf["loadgen.request"]),
			"edge":    mean(append(ownSelf["edge.search"], ownSelf["edge.push"]...)),
			"router":  mean(ownSelf["router.search"]),
			"cloud":   mean(ownSelf["cloud.search"]),
		}
}

func nanTo0(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
