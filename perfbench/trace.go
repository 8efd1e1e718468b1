package main

import (
	"encoding/binary"
	"encoding/json"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"icdb/internal/relstore"
	"icdb/internal/wire"
)

// span is one timed interval at a layer boundary. Spans of one command
// share Cmd; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Cmd    int64  `json:"cmd,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Bytes is the payload size for I/O spans.
	Bytes int64 `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	conns map[string]*timingConn
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), conns: map[string]*timingConn{}}
}

func (t *tracer) add(name string, cmd, parent int64, start, end time.Time) int64 {
	return t.addBytes(name, cmd, parent, start, end, 0)
}

func (t *tracer) addBytes(name string, cmd, parent int64, start, end time.Time, n int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Cmd: cmd, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Bytes: n})
	return id
}

// setEnd closes a span opened before its children were recorded.
func (t *tracer) setEnd(id int64, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.at(end)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// at converts a time to the tracer's clock.
func (t *tracer) at(tm time.Time) int64 { return tm.Sub(t.epoch).Nanoseconds() }

// drain waits for the server-side record of the command the session
// at local just completed.
func (t *tracer) drain(local string) serverRec {
	t.mu.Lock()
	c := t.conns[local]
	t.mu.Unlock()
	if c == nil {
		return serverRec{}
	}
	select {
	case r := <-c.recs:
		return r
	case <-time.After(5 * time.Second):
		return serverRec{}
	}
}

// selfTimes returns each span name's total self time: its duration
// minus the part of it its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		covered := coveredBy(children[s.ID], s.Start, s.End)
		out[s.Name] += s.dur() - covered
	}
	return out
}

// coveredBy is the length of [lo, hi) covered by the union of spans.
func coveredBy(spans []span, lo, hi int64) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64 = 0, -1, -1
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return time.Duration(total)
}

// writeTrace writes the spans and the per-layer self times to path.
func writeTrace(path string, meta map[string]any, spans []span) error {
	self := map[string]float64{}
	for name, d := range selfTimes(spans) {
		self[name] = d.Seconds()
	}
	data, err := json.Marshal(map[string]any{"meta": meta, "self_seconds": self, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// serverRec is the server side of one command as its connection saw
// it: the Command frame read, then the Done (or Error) frame written.
type serverRec struct {
	in, out           time.Time
	bytesIn, bytesOut int64
	writes            int
}

// timingListener hands Server.Serve connections that record each
// command's server-side interval.
type timingListener struct {
	net.Listener
	tr *tracer
}

func (l *timingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return c, err
	}
	tc := &timingConn{Conn: c, recs: make(chan serverRec, 1)}
	tc.rd.skip = len(wire.Magic) + 4 // the client preamble precedes the frames
	l.tr.mu.Lock()
	l.tr.conns[c.RemoteAddr().String()] = tc
	l.tr.mu.Unlock()
	return tc, nil
}

// timingConn watches the frame stream in both directions: a Command
// frame read opens a command, the next Done or Error frame written
// closes it.
type timingConn struct {
	net.Conn
	mu     sync.Mutex
	rd, wr frameScanner
	busy   bool
	cur    serverRec
	recs   chan serverRec // one per command; the closed loop drains it before the next
}

func (c *timingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := time.Now()
		c.mu.Lock()
		c.rd.feed(p[:n], func(t wire.FrameType) {
			if t == wire.FrameCommand {
				c.busy = true
				c.cur = serverRec{in: now}
			}
		})
		if c.busy {
			c.cur.bytesIn += int64(n)
		}
		c.mu.Unlock()
	}
	return n, err
}

func (c *timingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.busy {
		c.wr.feed(p[:n], func(wire.FrameType) {})
		return n, err
	}
	c.cur.bytesOut += int64(n)
	c.cur.writes++
	c.wr.feed(p[:n], func(t wire.FrameType) {
		if c.busy && (t == wire.FrameDone || t == wire.FrameError) {
			c.cur.out = now
			c.busy = false
			select {
			case c.recs <- c.cur:
			default: // an unread record means the session died; drop
			}
		}
	})
	return n, err
}

// frameScanner follows frame boundaries (u32 length, u8 type, payload)
// in a byte stream, after skipping a fixed-size preamble.
type frameScanner struct {
	skip int
	hdr  [5]byte
	nh   int
	rem  int
	typ  wire.FrameType
}

func (s *frameScanner) feed(b []byte, done func(wire.FrameType)) {
	for len(b) > 0 {
		switch {
		case s.skip > 0:
			n := min(s.skip, len(b))
			s.skip -= n
			b = b[n:]
		case s.rem > 0:
			n := min(s.rem, len(b))
			s.rem -= n
			b = b[n:]
			if s.rem == 0 {
				done(s.typ)
			}
		default:
			n := copy(s.hdr[s.nh:], b)
			s.nh += n
			b = b[n:]
			if s.nh == len(s.hdr) {
				s.nh = 0
				s.typ = wire.FrameType(s.hdr[4])
				s.rem = int(binary.LittleEndian.Uint32(s.hdr[:4]))
				if s.rem == 0 {
					done(s.typ)
				}
			}
		}
	}
}

// timingFS is the journal's filesystem with every append, sync and
// compaction recorded as a span. It behaves like relstore's default
// (real) filesystem.
type timingFS struct {
	tr            *tracer
	snap, journal string
	mu            sync.Mutex
	compactStart  time.Time
}

func (f *timingFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (f *timingFS) Create(path string) (relstore.File, error) {
	if path == f.snap+".tmp" {
		f.mu.Lock()
		f.compactStart = time.Now()
		f.mu.Unlock()
	}
	file, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f, journal: path == f.journal}, nil
}

func (f *timingFS) OpenAppend(path string) (relstore.File, error) {
	file, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f, journal: path == f.journal}, nil
}

func (f *timingFS) Rename(oldpath, newpath string) error {
	err := os.Rename(oldpath, newpath)
	if newpath == f.journal {
		// A compaction ends when the trimmed journal replaces the old
		// one after the new snapshot did.
		f.mu.Lock()
		start := f.compactStart
		f.compactStart = time.Time{}
		f.mu.Unlock()
		if !start.IsZero() {
			f.tr.add("journal.compact", 0, 0, start, time.Now())
		}
	}
	return err
}

func (f *timingFS) Remove(path string) error { return os.Remove(path) }

// timingFile records appends and syncs on the journal file; writes to
// compaction temp files are part of the compaction span.
type timingFile struct {
	*os.File
	fs      *timingFS
	journal bool
}

func (f *timingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	if f.journal {
		f.fs.tr.addBytes("journal.append", 0, 0, start, time.Now(), int64(n))
	}
	return n, err
}

func (f *timingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	if f.journal {
		f.fs.tr.add("journal.fsync", 0, 0, start, time.Now())
	}
	return err
}
