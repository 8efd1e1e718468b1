package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"icdb/internal/icdb"
	"icdb/internal/relstore"
	"icdb/internal/wire"
)

// server is one boot of the catalog, composed the way
// "icdbd -journal -fsync always" composes it: relstore.OpenDurable,
// icdb.Open, then a wire.Server on a loopback listener.
type server struct {
	dir     string
	durable *relstore.Durable
	db      *icdb.DB
	srv     *wire.Server
	addr    string
	served  chan error
	tr      *tracer // nil when untraced
}

// bootTimes breaks one boot down. total (boot to first answer) is the
// setup_s sample.
type bootTimes struct {
	open, icdbOpen, firstQuery, total time.Duration
	hydrations                        int64
	recovery                          relstore.RecoveryInfo
	firstRows                         []string
}

// boot copies the cached catalog into a fresh directory under runDir
// and boots it, answering first. With tr non-nil the boot is traced:
// the journal filesystem and the listener are timing wrappers, and the
// open calls are recorded as spans.
func boot(runDir string, m *manifest, mode relstore.OpenMode, first command, tr *tracer) (*server, bootTimes, error) {
	var bt bootTimes
	dir, err := os.MkdirTemp(runDir, "boot-")
	if err != nil {
		return nil, bt, err
	}
	if err := stageCatalog(m, dir); err != nil {
		return nil, bt, err
	}
	runtime.GC()

	path := filepath.Join(dir, snapName)
	opt := relstore.DurableOptions{Fsync: relstore.FsyncAlways, Open: mode}
	if tr != nil {
		opt.FS = &timingFS{tr: tr, snap: path, journal: path + ".wal"}
	}
	start := time.Now()
	durable, err := relstore.OpenDurable(path, opt)
	if err != nil {
		return nil, bt, err
	}
	opened := time.Now()
	db, err := icdb.Open(durable.Store)
	if err != nil {
		durable.Close()
		return nil, bt, err
	}
	dbOpened := time.Now()
	s := &server{dir: dir, durable: durable, db: db, tr: tr, served: make(chan error, 1)}
	s.srv = &wire.Server{
		DB:       db,
		ReadFile: designReader(filepath.Join(dir, "designs")),
		// icdbd's default limits.
		Limits: wire.Limits{
			MaxConns:         256,
			IdleTimeout:      10 * time.Minute,
			WriteTimeout:     30 * time.Second,
			HandshakeTimeout: 10 * time.Second,
		},
		Durability: durable.Info,
		Hydration:  durable.LazyInfo,
	}
	var ln net.Listener
	if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		durable.Close()
		return nil, bt, err
	}
	if tr != nil {
		ln = &timingListener{Listener: ln, tr: tr}
	}
	s.addr = ln.Addr().String()
	go func() { s.served <- s.srv.Serve(ln) }()

	hyd := durable.LazyInfo().Hydrations
	c, err := dial(s.addr)
	if err != nil {
		s.close()
		return nil, bt, err
	}
	qStart := time.Now()
	_, err = c.Exec(first.text, func(line string) { bt.firstRows = append(bt.firstRows, line) })
	end := time.Now()
	c.Close()
	if err != nil {
		s.close()
		return nil, bt, fmt.Errorf("first command %q: %w", first.text, err)
	}
	if tr != nil {
		tr.drain(c.local) // the first command's server record
	}
	bt.open, bt.icdbOpen = opened.Sub(start), dbOpened.Sub(opened)
	bt.firstQuery, bt.total = end.Sub(qStart), end.Sub(start)
	bt.hydrations = durable.LazyInfo().Hydrations - hyd
	bt.recovery = durable.Recovery()
	if tr != nil {
		root := tr.add("boot", 0, 0, start, end)
		tr.add("relstore.open", 0, root, start, opened)
		tr.add("icdb.open", 0, root, opened, dbOpened)
		tr.add("relstore.first_query", 0, root, qStart, end)
	}
	return s, bt, nil
}

// close shuts the server down and closes the journal. The directory
// stays until the run ends.
func (s *server) close() error {
	s.srv.Shutdown(5 * time.Second)
	err := <-s.served
	if cerr := s.durable.Close(); err == nil {
		err = cerr
	}
	return err
}

// stageCatalog copies the cached snapshot (and journal tail) into dir
// and writes the designs where the server's ReadFile finds them.
func stageCatalog(m *manifest, dir string) error {
	for _, name := range []string{snapName, snapName + ".wal"} {
		if err := copyFile(filepath.Join(m.dir, name), filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	if err := os.MkdirAll(filepath.Join(dir, "designs"), 0o755); err != nil {
		return err
	}
	for _, d := range m.Designs {
		if err := os.WriteFile(filepath.Join(dir, "designs", d.File), []byte(d.Text), 0o644); err != nil {
			return err
		}
	}
	return syncDir(dir)
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	// Flush now: dirty pages left behind would be written out by the
	// journal's first fsyncs, inflating the measured write latencies.
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// syncDir flushes a directory's entries.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// designReader confines expand's reads to dir, as icdbd -designs does.
func designReader(dir string) func(path string) ([]byte, error) {
	return func(path string) ([]byte, error) {
		if !filepath.IsLocal(path) {
			return nil, fmt.Errorf("design path %q must be relative to the server's designs directory", path)
		}
		return os.ReadFile(filepath.Join(dir, path))
	}
}

// client is one wire session; local names its end of the connection,
// which is how a traced run pairs it with the server side.
type client struct {
	*wire.Client
	local string
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := wire.NewClient(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &client{Client: c, local: conn.LocalAddr().String()}, nil
}
