package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"icdb/internal/cql"
	"icdb/internal/eqn"
	"icdb/internal/expand"
	"icdb/internal/genus"
	"icdb/internal/icdb"
	"icdb/internal/iif"
	"icdb/internal/relstore"
	"icdb/internal/wire"
)

// layerPass replays a traced run's command order in process, against
// a second boot of the same catalog, timing the public calls the CQL
// executor makes for each command. Its row counts must equal the wire
// replies'.
type layerPass struct {
	tr   *tracer
	db   *icdb.DB
	ex   *expand.Expander
	dir  string
	buf  bytes.Buffer
	vals map[string][]float64 // layer metric samples
	// pinned/unpinned single-point explore latencies of the write probe.
	pinned, unpinned []float64
	// gen is the store generation after the previous command.
	gen uint64
	// paretoGen is the store generation each frontier scope was last
	// queried at; a pareto on a scope whose generation moved since is a
	// pareto after a write (its frontier cache is stale).
	paretoGen  map[string]uint64
	mismatches int
	errs       []string
}

// runLayerPass boots the catalog without a server and replays samples
// in order; only measured samples contribute to the metrics.
func runLayerPass(runDir string, m *manifest, mode relstore.OpenMode, first command, samples []sample, tr *tracer) (*layerPass, error) {
	dir, err := os.MkdirTemp(runDir, "layers-")
	if err != nil {
		return nil, err
	}
	if err := stageCatalog(m, dir); err != nil {
		return nil, err
	}
	d, err := relstore.OpenDurable(filepath.Join(dir, snapName), relstore.DurableOptions{Fsync: relstore.FsyncAlways, Open: mode})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	db, err := icdb.Open(d.Store)
	if err != nil {
		return nil, err
	}
	lp := &layerPass{tr: tr, db: db, ex: expand.New(db), dir: filepath.Join(dir, "designs"), vals: map[string][]float64{}, paretoGen: map[string]uint64{}}
	if _, err := lp.run(first, 0, false); err != nil {
		return nil, err
	}
	for i, s := range samples {
		rows, err := lp.run(s.cmd, int64(i+1), s.measured)
		if err != nil {
			return nil, fmt.Errorf("layer pass %q: %w", s.cmd.text, err)
		}
		if s.measured && !s.failed && rows != s.rows {
			lp.mismatches++
			if len(lp.errs) < 5 {
				lp.errs = append(lp.errs, fmt.Sprintf("%q: %d rows in process, %d over the wire", s.cmd.text, rows, s.rows))
			}
		}
	}
	return lp, lp.writeProbe(m)
}

const (
	probeRounds = 30
	// probeBase keeps the probe's bindings apart from the sessions'.
	probeBase = 900_000_000
)

// writeProbe measures the copy-on-write cost of a write that follows a
// reader pin: per round, a frontier query pins the explorations
// relation, then two single-point explores of fresh bindings run back
// to back — the first pays for the pin, the second does not.
func (lp *layerPass) writeProbe(m *manifest) error {
	for i := range probeRounds {
		gen := m.Generators[i%len(m.Generators)]
		if err := lp.db.Pareto(icdb.ParetoQuery{Generator: gen}, func(icdb.ParetoPoint) bool { return true }); err != nil {
			return err
		}
		for j, into := range []*[]float64{&lp.pinned, &lp.unpinned} {
			start := time.Now()
			if _, err := lp.db.Explore(gen, 1, 1, 1, map[string]int{"k": probeBase + 2*i + j}, false); err != nil {
				return err
			}
			*into = append(*into, float64(time.Since(start))/float64(time.Millisecond))
		}
	}
	return nil
}

// timed runs f as a span named name under parent and, when measured,
// records its duration in unit-scaled form.
func (lp *layerPass) timed(name string, cmd, parent int64, measured bool, scale time.Duration, f func() error) error {
	start := time.Now()
	err := f()
	end := time.Now()
	if measured {
		lp.tr.add(name, cmd, parent, start, end)
		lp.vals[name] = append(lp.vals[name], float64(end.Sub(start))/float64(scale))
	}
	return err
}

// run replays one command, returning its reply row count.
func (lp *layerPass) run(c command, id int64, measured bool) (int, error) {
	defer func() { lp.gen = lp.db.Store().Generation() }()
	start := time.Now()
	var root int64
	if measured {
		// Children are recorded before the root closes; reserve the root.
		root = lp.tr.add("layer.cmd", id, 0, start, start)
		defer func() { lp.tr.setEnd(root, time.Now()) }()
	}
	var stmt cql.Stmt
	if err := lp.timed("cql.parse", id, root, measured, time.Microsecond, func() (err error) {
		stmt, err = cql.Parse(c.text)
		return err
	}); err != nil {
		return 0, err
	}
	var lines []string
	switch s := stmt.(type) {
	case *cql.FindStmt:
		var q *cql.FindQuery
		if err := lp.timed("cql.compile", id, root, measured, time.Microsecond, func() (err error) {
			q, err = cql.CompileFind(lp.db, s)
			return err
		}); err != nil {
			return 0, err
		}
		var cands []icdb.Candidate
		if err := lp.timed("icdb.find", id, root, measured, time.Millisecond, func() error {
			return q.Run(func(c icdb.Candidate) bool { cands = append(cands, c); return true })
		}); err != nil {
			return 0, err
		}
		for i, c := range cands {
			lines = append(lines, fmt.Sprintf("%d. %-12s %-18s width %d..%d area %g delay %g cost %g",
				i+1, c.Impl.Name, c.Impl.Component, c.Impl.WidthMin, c.Impl.WidthMax, c.Area, c.Delay, c.Cost))
		}
		if len(cands) == 0 {
			lines = []string{"no matching implementations"}
		}
		if measured {
			lp.vals["icdb.rows_returned"] = append(lp.vals["icdb.rows_returned"], float64(len(cands)))
		}
	case *cql.ParetoStmt:
		q := icdb.ParetoQuery{Dominated: s.Dominated}
		scope := "gen:"
		if s.Generator != nil {
			q.Generator = s.Generator.Text
			scope += q.Generator
		}
		if s.Type != nil {
			q.Component = genus.ComponentType(s.Type.Text)
			scope = "ct:" + s.Type.Text
		}
		var pts []icdb.ParetoPoint
		name := "icdb.pareto"
		if g, ok := lp.paretoGen[scope]; ok && g != lp.gen {
			name = "icdb.pareto_after_write"
		}
		defer func() { lp.paretoGen[scope] = lp.db.Store().Generation() }()
		if err := lp.timed(name, id, root, measured, time.Millisecond, func() error {
			return lp.db.Pareto(q, func(p icdb.ParetoPoint) bool {
				if s.HasLimit && len(pts) >= s.Limit {
					return false
				}
				pts = append(pts, p)
				return true
			})
		}); err != nil {
			return 0, err
		}
		if measured && name != "icdb.pareto" {
			lp.vals["icdb.pareto"] = append(lp.vals["icdb.pareto"], lp.vals[name][len(lp.vals[name])-1])
		}
		for i, p := range pts {
			lines = append(lines, fmt.Sprintf("%d. %-24s %-18s width %3d area %g delay %g cost %g",
				i+1, p.PointID(), p.Component, p.Width, p.Area, p.Delay, p.Cost))
		}
	case *cql.ExploreStmt:
		params := bindings(s.Params)
		var pts []icdb.ExplorePoint
		step := max(s.Step, 1)
		if err := lp.timed("icdb.write", id, root, measured, time.Millisecond, func() (err error) {
			pts, err = lp.db.Explore(s.Gen.Text, s.Lo, s.Hi, step, params, s.Materialize)
			return err
		}); err != nil {
			return 0, err
		}
		for _, pt := range pts {
			lines = append(lines, fmt.Sprintf("width %3d: area %g delay %g cost %g", pt.Width, pt.Area, pt.Delay, pt.Cost))
		}
		lines = append(lines, fmt.Sprintf("explored %d design point(s) of %s", len(pts), s.Gen.Text))
	case *cql.ExpandStmt:
		src, err := designReader(lp.dir)(s.Path.Text)
		if err != nil {
			return 0, err
		}
		var d *iif.Design
		if err := lp.timed("iif.parse", id, root, measured, time.Microsecond, func() (err error) {
			d, err = iif.Parse(string(src))
			return err
		}); err != nil {
			return 0, err
		}
		var net *eqn.Network
		if err := lp.timed("expand.expand", id, root, measured, time.Millisecond, func() (err error) {
			net, err = lp.ex.Expand(d, bindings(s.Params))
			return err
		}); err != nil {
			return 0, err
		}
		if err := lp.timed("eqn.check", id, root, measured, time.Microsecond, func() error {
			if err := net.Validate(); err != nil {
				return err
			}
			_, err := net.TopoOrder()
			return err
		}); err != nil {
			return 0, err
		}
		var out string
		lp.timed("eqn.format", id, root, measured, time.Microsecond, func() error {
			out = net.Format()
			return nil
		})
		lines = strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	default:
		return 0, fmt.Errorf("unexpected statement %T", stmt)
	}
	// Row encode: the Row frames the server would write for the reply.
	lp.buf.Reset()
	err := lp.timed("encode.rows", id, root, measured, time.Microsecond, func() error {
		for _, l := range lines {
			if err := wire.WriteFrame(&lp.buf, wire.FrameRow, []byte(l)); err != nil {
				return err
			}
		}
		return nil
	})
	return len(lines), err
}

func bindings(ps []cql.ExpandParam) map[string]int {
	out := make(map[string]int, len(ps))
	for _, p := range ps {
		out[p.Name.Text] = p.Value
	}
	return out
}
