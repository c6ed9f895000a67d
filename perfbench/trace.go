package main

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"emap/internal/cloud"
	"emap/internal/proto"
)

// span is one timed call across a layer boundary. Spans of one
// request share a key; Parent is the index of the enclosing span of
// the same request (-1 for a root), filled in by link.
type span struct {
	Name   string `json:"name"`
	Key    string `json:"key"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory while on; off, every call is a no-op
// apart from one atomic load.
type tracer struct {
	on     atomic.Bool
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) add(name, key string, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	s := span{Name: name, Key: key, Start: start.Sub(t.origin).Nanoseconds(),
		End: end.Sub(t.origin).Nanoseconds(), Parent: -1}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the recorded spans with parents linked.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	s := append([]span(nil), t.spans...)
	t.mu.Unlock()
	link(s)
	return s
}

// link sets each span's parent to the tightest span of the same
// request that encloses it in time. A replica's span for a Replicate
// frame belongs to whichever ingest of that tenant encloses it (the
// owner replicates synchronously inside the ingest).
func link(spans []span) {
	group := func(key string) string {
		if t, ok := strings.CutPrefix(key, "replicate/"); ok {
			return "ingest/" + t + "/"
		}
		if strings.HasPrefix(key, "ingest/") {
			return key[:strings.LastIndexByte(key, '/')+1]
		}
		return key
	}
	byGroup := map[string][]int{}
	for i := range spans {
		g := group(spans[i].Key)
		byGroup[g] = append(byGroup[g], i)
	}
	for _, idx := range byGroup {
		for _, i := range idx {
			best := -1
			for _, j := range idx {
				if i == j || !covers(spans[j], spans[i]) {
					continue
				}
				// Of two spans over the same interval, the one recorded
				// first is the parent: callers record outer spans first.
				if spans[j].dur() == spans[i].dur() && j > i {
					continue
				}
				if spans[j].Key != spans[i].Key && !strings.HasPrefix(spans[i].Key, "replicate/") {
					continue
				}
				if best < 0 || spans[j].dur() < spans[best].dur() || spans[j].dur() == spans[best].dur() && j > best {
					best = j
				}
			}
			spans[i].Parent = best
		}
	}
}

// covers reports whether a's interval contains b's.
func covers(a, b span) bool { return a.Start <= b.Start && a.End >= b.End }

// selfTime is a span's duration minus the part of it that its
// children cover (overlapping children are counted once).
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return parent.dur() - covered
}

// layerSelf returns, per span name, the self times (ms) of every span
// of that name, children found through Parent links.
func layerSelf(spans []span) map[string][]float64 {
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string][]float64{}
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], float64(selfTime(s, kids[i]))/1e6)
	}
	return out
}

// durations returns, per span name, every span's duration in ms.
func durations(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.dur())/1e6)
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// windowKey is the request key of an upload: a hash of its quantized
// samples. Uploads are distinct windows, so it pairs the client's span
// with the spans the servers record for the same upload.
func windowKey(counts []int16) string {
	h := fnv.New64a()
	var b [2]byte
	for _, c := range counts {
		binary.LittleEndian.PutUint16(b[:], uint16(c))
		h.Write(b[:])
	}
	return "w" + string(binary.LittleEndian.AppendUint64(nil, h.Sum64()))
}

// frameKey derives the request key of a frame arriving at a server.
func frameKey(f proto.Frame) string {
	switch f.Type {
	case proto.TypeUpload:
		if u, err := proto.DecodeUpload(f.Payload); err == nil {
			return windowKey(u.Samples)
		}
	case proto.TypeIngest:
		if g, err := proto.DecodeIngest(f.Payload); err == nil {
			return ingestKey(f.Tenant, g.RecordID)
		}
	case proto.TypeReplicate:
		if r, err := proto.DecodeReplicate(f.Payload); err == nil {
			return "replicate/" + r.Tenant
		}
	}
	return "other"
}

func ingestKey(tenant, id string) string { return "ingest/" + tenant + "/" + id }

// frameCounter counts frames and payload bytes served by one handler.
type frameCounter struct {
	frames, bytesIn, bytesOut atomic.Int64
}

// timedHandler is the server-side span: it wraps a FrameHandler at the
// transport→handler boundary and records one span per served frame,
// named <layer>.<kind>, plus frame/byte counts per message type.
type timedHandler struct {
	layer  string
	h      cloud.FrameHandler
	tr     *tracer
	counts map[proto.MsgType]*frameCounter
}

func newTimedHandler(layer string, h cloud.FrameHandler, tr *tracer) *timedHandler {
	c := map[proto.MsgType]*frameCounter{}
	for _, t := range []proto.MsgType{proto.TypeUpload, proto.TypeIngest, proto.TypeReplicate} {
		c[t] = &frameCounter{}
	}
	return &timedHandler{layer: layer, h: h, tr: tr, counts: c}
}

func (w *timedHandler) ServeFrame(f proto.Frame) (proto.MsgType, []byte) {
	if !w.tr.on.Load() {
		return w.h.ServeFrame(f)
	}
	start := time.Now()
	typ, out := w.h.ServeFrame(f)
	end := time.Now()
	if c := w.counts[f.Type]; c != nil {
		c.frames.Add(1)
		c.bytesIn.Add(int64(len(f.Payload)))
		c.bytesOut.Add(int64(len(out)))
	}
	w.tr.add(w.layer+"."+kindOf(f.Type), frameKey(f), start, end)
	return typ, out
}

func kindOf(t proto.MsgType) string {
	switch t {
	case proto.TypeUpload:
		return "search"
	case proto.TypeIngest:
		return "ingest"
	case proto.TypeReplicate:
		return "replicate"
	}
	return "other"
}
