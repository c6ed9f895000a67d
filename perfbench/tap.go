package main

import (
	"encoding/binary"
	"net"
	"sync"
	"time"

	"emap/internal/proto"
)

// frameInfo describes one frame seen on a tapped connection.
type frameInfo struct {
	Version uint8
	Type    proto.MsgType
	ID      uint32
	Size    int // payload bytes
}

// frameScanner splits a byte stream into protocol frames without
// consuming it: fed the bytes a connection carries, in order and in
// any chunking, it reports each complete frame and, when keep says
// so, its payload.
type frameScanner struct {
	hdr     []byte
	cur     frameInfo
	rest    int // payload+CRC bytes still to come; 0 while reading a header
	payload []byte
	keeping bool
	keep    func(frameInfo) bool
	onFrame func(frameInfo, []byte)
}

// headerLen returns the full header length once enough of it is known.
func headerLen(h []byte) (int, bool) {
	if len(h) < 3 {
		return 0, false
	}
	switch h[2] {
	case proto.Version1:
		return 8, true
	case proto.Version2:
		return 12, true
	default: // v3: tenant length byte at offset 8
		if len(h) < 9 {
			return 0, false
		}
		return 13 + int(h[8]), true
	}
}

func (s *frameScanner) feed(b []byte) {
	for len(b) > 0 {
		if s.rest == 0 {
			n, ok := headerLen(s.hdr)
			if !ok {
				s.hdr = append(s.hdr, b[0])
				b = b[1:]
				continue
			}
			take := min(n-len(s.hdr), len(b))
			s.hdr = append(s.hdr, b[:take]...)
			b = b[take:]
			if len(s.hdr) < n {
				continue
			}
			s.cur = frameInfo{Version: s.hdr[2], Type: proto.MsgType(s.hdr[3])}
			if s.cur.Version >= proto.Version2 {
				s.cur.ID = binary.LittleEndian.Uint32(s.hdr[4:])
			}
			s.cur.Size = int(binary.LittleEndian.Uint32(s.hdr[n-4:]))
			s.rest = s.cur.Size + 4
			s.keeping = s.keep != nil && s.keep(s.cur)
			s.payload = s.payload[:0]
			s.hdr = s.hdr[:0]
			continue
		}
		take := min(s.rest, len(b))
		if s.keeping {
			s.payload = append(s.payload, b[:take]...)
		}
		s.rest -= take
		b = b[take:]
		if s.rest == 0 {
			var p []byte
			if s.keeping {
				p = append([]byte(nil), s.payload[:s.cur.Size]...)
			}
			s.onFrame(s.cur, p)
		}
	}
}

// exchange is one request/reply pair observed on the wire.
type exchange struct {
	Type      proto.MsgType // request type
	Sent      time.Time     // request header written
	Recv      time.Time     // reply fully read
	UpBytes   int
	DownBytes int
	Up, Down  []byte // payloads, when the exchange was sampled
}

// wireTap observes every request/reply exchange on the connections it
// wraps, pairing them by frame ID. It keeps the payloads of the
// exchanges sample selects, for the correctness gate.
type wireTap struct {
	sample func(id uint32) bool
	mu     sync.Mutex
	done   []exchange
}

// wrap returns conn with both directions observed.
func (t *wireTap) wrap(conn net.Conn) net.Conn {
	c := &tapConn{Conn: conn, tap: t, open: map[uint32]*exchange{}}
	keep := func(f frameInfo) bool { return t.sample != nil && t.sample(f.ID) }
	c.out = frameScanner{keep: keep, onFrame: c.sent}
	c.in = frameScanner{keep: keep, onFrame: c.received}
	return c
}

func (t *wireTap) exchanges() []exchange {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]exchange(nil), t.done...)
}

type tapConn struct {
	net.Conn
	tap     *wireTap
	out, in frameScanner
	mu      sync.Mutex
	open    map[uint32]*exchange
}

func (c *tapConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.out.feed(b)
	c.mu.Unlock()
	return c.Conn.Write(b)
}

func (c *tapConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.mu.Lock()
		c.in.feed(b[:n])
		c.mu.Unlock()
	}
	return n, err
}

// sent and received run under c.mu.
func (c *tapConn) sent(f frameInfo, payload []byte) {
	if f.Type != proto.TypeUpload && f.Type != proto.TypeIngest {
		return
	}
	c.open[f.ID] = &exchange{Type: f.Type, Sent: time.Now(), UpBytes: f.Size, Up: payload}
}

func (c *tapConn) received(f frameInfo, payload []byte) {
	x, ok := c.open[f.ID]
	if !ok {
		return
	}
	delete(c.open, f.ID)
	x.Recv, x.DownBytes, x.Down = time.Now(), f.Size, payload
	if f.Type == proto.TypeError {
		x.Down = nil
	}
	c.tap.mu.Lock()
	c.tap.done = append(c.tap.done, *x)
	c.tap.mu.Unlock()
}
