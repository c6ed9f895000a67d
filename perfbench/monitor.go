package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"emap/internal/cloud"
	"emap/internal/edge"
	"emap/internal/mdb"
	"emap/internal/proto"
	"emap/internal/synth"
)

// monitor: the paper's loop. Device slots share the two connections
// against a smaller ward store; even slots replay seizure inputs that
// end at the onset, odd slots replay normal inputs. Every slot pushes
// one-second windows on an open-loop schedule compressed from real
// time, one recording (an episode) after another, and each finished
// episode scores one decision against its label.
const (
	monArchetypes = 3
	monInstances  = 2
	monSlots      = 8
	monPeriod     = 200 * time.Millisecond // one window per slot: 5× real time
	monEpisode    = 40                     // windows per episode (seconds of input)
	monWarmup     = 3                      // windows before a decision may count
)

type monitor struct {
	recs     []*synth.Recording
	episodes [][]*episode // per slot
	gate     func(id uint32) bool
}

// episode is one device lifetime: a recording cut into windows, and its
// label.
type episode struct {
	seizure bool
	windows [][]float64
}

func (m *monitor) prepare(o options) {
	g := synth.NewGenerator(synth.Config{Seed: storeSeed, ArchetypesPerClass: monArchetypes})
	m.recs = corpus(g, monArchetypes, monInstances)
	rnd := rand.New(rand.NewSource(o.seed))
	perSlot := int(o.seconds*float64(time.Second)/float64(monPeriod))/monEpisode + 1
	m.episodes = make([][]*episode, monSlots)
	for s := range m.episodes {
		for e := 0; e < perSlot; e++ {
			ep := &episode{seizure: s%2 == 0}
			class := synth.Normal
			if ep.seizure {
				class = synth.Seizure
			}
			rec := g.SeizureInput(rnd.Intn(monArchetypes), monEpisode, monEpisode)
			if !ep.seizure {
				rec = heldOut(g, rnd, class, rnd.Intn(monArchetypes), monEpisode)
			}
			for k := 0; k+windowLen <= len(rec.Samples); k += windowLen {
				ep.windows = append(ep.windows, rec.Samples[k:k+windowLen])
			}
			m.episodes[s] = append(m.episodes[s], ep)
		}
	}
	sample := gateSampler(o.seed)
	m.gate = func(id uint32) bool { return sample(int(id)) }
}

type monInstance struct {
	m       *monitor
	store   *mdb.Store
	eng     *cloud.Engine
	srv     *server
	tap     *wireTap
	clients []*edge.Client
}

func (m *monitor) setup(o options, tr *tracer, dir string) (instance, error) {
	store, err := mdb.Build(m.recs, mdb.DefaultBuildConfig())
	if err != nil {
		return nil, err
	}
	reg, err := mdb.NewRegistry("", 0)
	if err != nil {
		return nil, err
	}
	eng, err := cloud.NewEngine(reg, cloud.Config{})
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
	in := &monInstance{m: m, store: store, eng: eng, srv: srv, tap: &wireTap{sample: m.gate}}
	fir := edgeFilter()
	for c := 0; c < conns; c++ {
		cl, err := dial(srv.addr(), wardTenant, in.tap)
		if err != nil {
			in.close()
			return nil, err
		}
		in.clients = append(in.clients, cl)
		// Pay the tenant's lazy serving state before timing.
		w := fir.Apply(m.episodes[c][0].windows[1])
		if _, err := cl.Search(context.Background(), w); err != nil {
			in.close()
			return nil, err
		}
	}
	return in, nil
}

func (in *monInstance) close() {
	for _, c := range in.clients {
		c.Close()
	}
	in.srv.close()
	in.eng.Stop()
}

// slotStats is what one device slot observed; owned by its goroutine.
type slotStats struct {
	pushes, failed     int
	recalls, tracking  int
	remaining          int
	correct, decisions int
	seizureHits, seiz  int
	errs               []string
}

func (in *monInstance) measure(o options, tr *tracer) *outcome {
	out := &outcome{}
	before := readCounters(in.eng, wardTenant)
	exBefore := len(in.tap.exchanges())
	var push, lags, pushDur recorder
	stats := make([]slotStats, monSlots)
	start := time.Now().Add(20 * time.Millisecond)
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for s := 0; s < monSlots; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Slots are staggered evenly across one period.
			sch := schedule{start: start.Add(monPeriod * time.Duration(s) / monSlots), rate: float64(time.Second) / float64(monPeriod)}
			in.runSlot(s, sch, deadline, &stats[s], &push, &lags, &pushDur, tr)
		}()
	}
	wg.Wait()
	after := readCounters(in.eng, wardTenant)

	var tot slotStats
	for _, st := range stats {
		tot.pushes += st.pushes
		tot.failed += st.failed
		tot.recalls += st.recalls
		tot.tracking += st.tracking
		tot.remaining += st.remaining
		tot.correct += st.correct
		tot.decisions += st.decisions
		tot.seizureHits += st.seizureHits
		tot.seiz += st.seiz
		for _, e := range st.errs {
			out.fail("%s", e)
		}
	}
	out.attempted = tot.pushes

	// The cloud is reached only on recalls: the tap saw each one.
	var rtt recorder
	var upBytes, downBytes, ups int
	exs := in.tap.exchanges()[exBefore:]
	for _, x := range exs {
		if x.Type != proto.TypeUpload {
			continue
		}
		rtt.add(x.Recv.Sub(x.Sent))
		ups++
		upBytes += x.UpBytes
		downBytes += x.DownBytes
		if x.Up == nil || x.Down == nil {
			continue
		}
		out.gated++
		u, err := proto.DecodeUpload(x.Up)
		if err != nil {
			out.fail("sampled upload: %v", err)
			continue
		}
		cs, err := proto.DecodeCorrSet(x.Down)
		if err != nil {
			out.fail("sampled reply: %v", err)
			continue
		}
		if err := gateSearch(in.store, in.eng.Config().Search, horizonSamples, u.Samples, u.Scale, cs,
			[]int{in.store.NumSets()}, omegaTolFloat); err != nil {
			out.fail("search reply: %v", err)
		}
	}

	out.primary = summarize(&push)
	out.aux = summarize(&rtt)
	out.auxValue = out.aux.P50
	accuracy := ratio(tot.correct, tot.decisions)
	out.named = append(latencyMetrics("push", out.primary),
		metric{Name: "decision_accuracy", Unit: "ratio", Value: accuracy, N: tot.decisions},
		metric{Name: "seizure_recall", Unit: "ratio", Value: ratio(tot.seizureHits, tot.seiz), N: tot.seiz},
		metric{Name: "recall_rtt_p50_ms", Unit: "ms", Value: out.aux.P50, N: out.aux.N})

	if tr.on.Load() {
		spans := tr.snapshot()
		isPush := func(k string) bool { return strings.HasPrefix(k, "push/") }
		layers, self := spanLayers(spans, isPush, in.srv.h)
		serve := durations(spans)["cloud.search"]
		lagS := summarize(&lags)
		set := func(name string, v float64, n int) {
			for i := range layers {
				if layers[i].Name == name {
					layers[i].Value, layers[i].N = v, n
				}
			}
		}
		set("edge.search_rtt_ms", mean(rtt.sorted()), rtt.N())
		set("transport.self_ms", mean(rtt.sorted())-mean(serve), rtt.N())
		set("proto.upload_bytes", ratioF(float64(upBytes), float64(ups)), ups)
		set("proto.reply_bytes", ratioF(float64(downBytes), float64(ups)), ups)
		out.layers = append([]metric{
			{Name: "loadgen.lag_tail_ms", Unit: "ms", Value: nanTo0(lagS.Tail), N: lagS.N},
			{Name: "loadgen.sent", Unit: "count", Value: float64(tot.pushes)},
			{Name: "edge.push_ms", Unit: "ms", Value: mean(pushDur.sorted()), N: pushDur.N()},
			{Name: "edge.recalls_per_window", Unit: "ratio", Value: ratio(tot.recalls, tot.pushes), N: tot.pushes},
			{Name: "edge.reconnects", Unit: "count", Value: float64(reconnects(in.clients))},
			{Name: "track.signals_per_window", Unit: "count", Value: ratioF(float64(tot.remaining), float64(tot.tracking)), N: tot.tracking},
		}, layers...)
		out.layers = append(out.layers, serverLayers(before, after, 8)...)
		out.layers = append(out.layers, noCluster()...)
		out.selfMs = self
	}
	return out
}

// pushStart is when a push's latency starts counting. A slot still
// busy with its previous window at the due time charges the wait from
// the due time, so an overrun delays the windows queued behind it; a
// slot that was idle starts at the push itself, leaving the
// generator's own wake-up lag to loadgen.lag.
func pushStart(due, begin, prevEnd time.Time) time.Time {
	if prevEnd.After(due) {
		return due
	}
	return begin
}

// runSlot plays one device slot's episodes back to back until the
// deadline; an episode cut by the deadline scores no decision.
func (in *monInstance) runSlot(s int, sch schedule, deadline time.Time, st *slotStats,
	push, lags, pushDur *recorder, tr *tracer) {
	k := 0 // window index across the slot's episodes
	var prevEnd time.Time
	for e, ep := range in.m.episodes[s] {
		dev, err := edge.NewDevice(in.clients[s%conns], edge.Config{Tenant: wardTenant})
		if err != nil {
			st.errs = append(st.errs, err.Error())
			return
		}
		alarm, complete := false, true
		for w, window := range ep.windows {
			due := sch.due(k)
			k++
			if due.After(deadline) {
				complete = false
				break
			}
			sleepUntil(due)
			begin := time.Now()
			lags.add(lag(due, begin))
			status, err := dev.Push(context.Background(), window)
			end := time.Now()
			from := pushStart(due, begin, prevEnd)
			prevEnd = end
			st.pushes++
			if err != nil {
				st.failed++
				st.errs = append(st.errs, fmt.Sprintf("slot %d episode %d window %d: %v", s, e, w, err))
				continue
			}
			push.add(latency(from, end))
			pushDur.add(end.Sub(begin))
			if tr.on.Load() {
				key := fmt.Sprintf("push/%d/%d", s, k)
				tr.add("loadgen.request", key, from, end)
				tr.add("edge.push", key, begin, end)
			}
			if status.CloudCalled {
				st.recalls++
			}
			if status.Tracking {
				st.tracking++
				st.remaining += status.Remaining
			}
			if w >= monWarmup && status.Anomalous {
				alarm = true
			}
		}
		dev.Close()
		if !complete {
			return
		}
		st.decisions++
		if alarm == ep.seizure {
			st.correct++
		}
		if ep.seizure {
			st.seiz++
			if alarm {
				st.seizureHits++
			}
		}
	}
}
