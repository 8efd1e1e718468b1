// Command perfbench is the repository's benchmark: closed-loop CQL
// workloads over the wire protocol against a server composed the way
// "icdbd -journal -fsync always" composes it.
//
// Usage (from the repository root, via perfbench/run.sh, which builds
// it first):
//
//	perfbench --workload synth_read|cold_recover --seed N
//	          [--seconds S] [--trace 0|1] [--work DIR]
//
// With --trace 0 it prints every end-to-end metric; with --trace 1 it
// runs the traced pass and prints the per-layer metrics. The last line
// of standard output is one JSON object: correct, attempted, failed and
// metrics (name -> value and unit). Catalogs are generated from the
// seed, once per (workload, seed), and cached under --work.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"icdb/internal/relstore"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    float64 // catalog size multiplier: 1, or toy sizes in the smoke test
	work     string
	// buildInProcess builds a missing catalog in this process instead of
	// a child process (the smoke test's binary cannot be re-executed).
	buildInProcess bool
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "synth_read or cold_recover")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed the catalog and command streams are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	fs.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "perfbench"), "directory for catalogs, run files and traces")
	buildOnly := fs.Bool("build-catalog", false, "only build the workload's catalog into the cache (used internally)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	cfg.trace = *trace == 1
	cfg.scale = 1
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if *buildOnly {
		w, err := lookupWorkload(cfg.workload)
		if err != nil {
			return err
		}
		return buildCatalogDir(cfg.work, w, cfg.seed, cfg.scale)
	}
	res, err := bench(cfg, stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// bench runs one invocation, printing a human-readable report to out
// and returning the result line.
func bench(cfg config, out io.Writer) (*result, error) {
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	m, err := loadCatalog(cfg, w)
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(cfg.work, "runs"), 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(filepath.Join(cfg.work, "runs"), w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	fmt.Fprintf(out, "workload %s seed %d: %d rows, snapshot v%d (%d bytes), journal tail %d, open %s, fsync always, %d sessions, %gs measured\n",
		w.name, cfg.seed, m.Rows, m.SnapshotVersion, m.SnapshotBytes, m.WALTail, modeName(w.mode), sessions, cfg.seconds)
	if cfg.trace {
		return traced(cfg, w, m, runDir, out)
	}
	return untraced(cfg, w, m, runDir, out)
}

// loadCatalog returns the workload's cached catalog for the seed,
// building it first when missing. The build runs in a child process,
// so the measured process starts from a clean heap.
func loadCatalog(cfg config, w workload) (*manifest, error) {
	dir := catalogDir(cfg.work, w, cfg.seed, cfg.scale)
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err == nil {
		return readCatalog(dir)
	}
	if cfg.buildInProcess {
		if err := buildCatalogDir(cfg.work, w, cfg.seed, cfg.scale); err != nil {
			return nil, err
		}
		return readCatalog(dir)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--build-catalog", "--workload", w.name,
		"--seed", strconv.FormatUint(cfg.seed, 10), "--work", cfg.work)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("building catalog: %w", err)
	}
	// Let the build's writeback finish before anything is timed.
	syscall.Sync()
	time.Sleep(time.Second)
	return readCatalog(dir)
}

func modeName(m relstore.OpenMode) string {
	if m == relstore.OpenLazy {
		return "lazy"
	}
	return "eager"
}

// tally accumulates attempted/failed commands across a run.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) add(attempted, failed int, errs ...string) {
	t.attempted += attempted
	t.failed += failed
	for _, e := range errs {
		if len(t.errs) < 8 {
			t.errs = append(t.errs, e)
		}
	}
}

// checkBoot checks a boot's first answer and its recovery.
func checkBoot(t *tally, m *manifest, first command, bt bootTimes) {
	_, err := checkReply(m, first, bt.firstRows)
	if err == nil && (bt.recovery.Truncated || bt.recovery.Replayed+bt.recovery.Deferred != m.WALTail) {
		err = fmt.Errorf("recovery %s, want %d journal records and no truncation", bt.recovery, m.WALTail)
	}
	if err != nil {
		t.add(1, 1, "boot: "+err.Error())
		return
	}
	t.add(1, 0)
}

// bootAndRun boots the catalog `boots` times (keeping the last boot),
// then runs the closed loop against it.
func bootAndRun(cfg config, w workload, m *manifest, runDir string, boots int, tr *tracer, t *tally) (*server, []bootTimes, *phase, error) {
	first := firstCommand(m)
	var bts []bootTimes
	var s *server
	for i := range boots {
		var bt bootTimes
		var err error
		btr := tr
		if i < boots-1 {
			btr = nil
		}
		s, bt, err = boot(runDir, m, w.mode, first, btr)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("boot: %w", err)
		}
		checkBoot(t, m, first, bt)
		bts = append(bts, bt)
		if i < boots-1 {
			if err := s.close(); err != nil {
				return nil, nil, nil, err
			}
			os.RemoveAll(s.dir)
		}
	}
	p, err := runPhase(s, m, w, cfg.seed, cfg.seconds)
	if err != nil {
		s.close()
		return nil, nil, nil, err
	}
	t.add(p.attempted, p.failed, p.errs...)
	return s, bts, p, nil
}

// checkNames verifies that every implementation a find reply named
// exists once the phase is over (implementations are never deleted).
func checkNames(s *server, p *phase, t *tally) {
	seen := map[string]bool{}
	for _, n := range p.names {
		if seen[n] {
			continue
		}
		seen[n] = true
		if _, err := s.db.ImplByName(n); err != nil {
			t.add(1, 1, fmt.Sprintf("find named %s: %v", n, err))
		}
	}
}

// untraced measures the end-to-end metrics.
func untraced(cfg config, w workload, m *manifest, runDir string, out io.Writer) (*result, error) {
	var t tally
	s, bts, p, err := bootAndRun(cfg, w, m, runDir, w.boots, nil, &t)
	if err != nil {
		return nil, err
	}
	checkNames(s, p, &t)
	m.Oracle = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap := float64(ms.HeapAlloc) / 1e6
	if err := s.close(); err != nil {
		return nil, err
	}

	met := map[string]metric{}
	setup := make([]float64, len(bts))
	for i, bt := range bts {
		setup[i] = bt.total.Seconds()
	}
	met["setup_s"] = metric{median(setup), "s"}
	met["cmds_per_s"] = metric{p.cmdsPerSec(), "1/s"}
	lat := latencies(p.measured())
	for _, name := range []string{"find", "pareto", "expand", "write"} {
		v := lat[name]
		if len(v) == 0 {
			return nil, fmt.Errorf("no %s commands completed in the measured phase", name)
		}
		met[name+"_p50_ms"] = metric{quantile(v, 0.5), "ms"}
		met[name+"_p90_ms"] = metric{quantile(v, 0.9), "ms"}
	}
	met["heap_live_mb"] = metric{heap, "MB"}

	fmt.Fprintf(out, "setup: %d boot(s), boot to first answer %s s\n", len(bts), fmtList(setup))
	fmt.Fprintf(out, "measured: %d commands in %.2fs\n", len(p.measured()), p.t1.Sub(p.t0).Seconds())
	for _, name := range []string{"find", "pareto", "expand", "write"} {
		v := lat[name]
		fmt.Fprintf(out, "  %-7s n=%-5d ms p10 %.3f p25 %.3f p50 %.3f p75 %.3f p90 %.3f p99 %.3f\n", name, len(v),
			quantile(v, 0.1), quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75), quantile(v, 0.9), quantile(v, 0.99))
	}
	printMetrics(out, met)
	return finish(out, &t, met), nil
}

// latencies groups measured latencies (ms) by metric family.
func latencies(samples []sample) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range samples {
		name := s.cmd.kind.String()
		if s.cmd.kind.isWrite() {
			name = "write"
		}
		out[name] = append(out[name], float64(s.end.Sub(s.start))/float64(time.Millisecond))
	}
	return out
}

// traced measures the per-layer metrics: an untraced closed loop (the
// baseline of trace.overhead and the source of the runtime counters),
// a traced boot and closed loop, and the in-process layer pass over the
// traced run's command order.
func traced(cfg config, w workload, m *manifest, runDir string, out io.Writer) (*result, error) {
	var t tally
	met := map[string]metric{}

	// 1. Untraced baseline.
	s, _, p0, err := bootAndRun(cfg, w, m, runDir, 1, nil, &t)
	if err != nil {
		return nil, err
	}
	checkNames(s, p0, &t)
	if err := s.close(); err != nil {
		return nil, err
	}
	os.RemoveAll(s.dir)
	n0 := float64(len(p0.measured()))
	before, after := &p0.memBefore, &p0.memAfter
	met["go.alloc_bytes_per_cmd"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / n0, "B"}
	met["go.gc_cycles"] = metric{float64(after.NumGC - before.NumGC), "count"}
	met["go.gc_pause_ms"] = metric{float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6, "ms"}

	// 2. Traced boot and closed loop.
	tr := newTracer()
	s, bts, p, err := bootAndRun(cfg, w, m, runDir, 1, tr, &t)
	if err != nil {
		return nil, err
	}
	checkNames(s, p, &t)
	if err := s.close(); err != nil {
		return nil, err
	}
	os.RemoveAll(s.dir)
	bt := bts[0]
	met["relstore.open_s"] = metric{bt.open.Seconds(), "s"}
	met["icdb.open_s"] = metric{bt.icdbOpen.Seconds(), "s"}
	met["relstore.first_query_s"] = metric{bt.firstQuery.Seconds(), "s"}
	met["relstore.hydrations"] = metric{float64(bt.hydrations), "count"}
	met["relstore.replayed"] = metric{float64(bt.recovery.Replayed), "count"}
	met["relstore.deferred"] = metric{float64(bt.recovery.Deferred), "count"}
	met["trace.overhead"] = metric{p.cmdsPerSec() / p0.cmdsPerSec(), "ratio"}
	wireMetrics(met, tr, p)
	journalMetrics(met, tr, p)

	// 3. In-process layer pass over the traced command order.
	lp, err := runLayerPass(runDir, m, w.mode, firstCommand(m), p.samples, tr)
	if err != nil {
		return nil, err
	}
	if lp.mismatches > 0 {
		t.add(0, lp.mismatches, lp.errs...)
	}
	for _, l := range []struct{ name, unit string }{
		{"cql.parse", "us"}, {"cql.compile", "us"}, {"icdb.find", "ms"}, {"icdb.pareto", "ms"},
		{"icdb.pareto_after_write", "ms"}, {"icdb.write", "ms"}, {"iif.parse", "us"},
		{"expand.expand", "ms"}, {"eqn.check", "us"}, {"eqn.format", "us"}, {"encode.rows", "us"},
	} {
		met[l.name+"_"+l.unit] = metric{quantile(lp.vals[l.name], 0.5), l.unit}
	}
	met["icdb.rows_returned"] = metric{mean(lp.vals["icdb.rows_returned"]), "count"}
	ratio := 0.0
	if len(lp.pinned) > 0 && len(lp.unpinned) > 0 {
		ratio = quantile(lp.pinned, 0.5) / quantile(lp.unpinned, 0.5)
	}
	met["icdb.write_pinned_over_unpinned"] = metric{ratio, "ratio"}
	fmt.Fprintf(out, "layer pass: %d commands replayed, %d pinned / %d unpinned explore writes, %d row-count mismatches\n",
		len(p.samples), len(lp.pinned), len(lp.unpinned), lp.mismatches)

	spans := tr.snapshot()
	attributeJournal(spans)
	tracePath := filepath.Join(cfg.work, "traces", fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return nil, err
	}
	meta := map[string]any{"workload": w.name, "seed": cfg.seed, "seconds": cfg.seconds, "fsync": "always", "metrics": met}
	if err := writeTrace(tracePath, meta, spans); err != nil {
		return nil, err
	}
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "trace: %d spans written to %s; self time per layer:\n", len(spans), tracePath)
	for _, n := range names {
		fmt.Fprintf(out, "  %-28s %10.3f s\n", n, self[n].Seconds())
	}
	printMetrics(out, met)
	return finish(out, &t, met), nil
}

// wireMetrics derives the wire layer's metrics from the server-side
// command records: the client's Exec time minus the server's
// Command-read to Done-write interval is the wire's own time.
func wireMetrics(met map[string]metric, tr *tracer, p *phase) {
	var self, bytes, writes []float64
	for i, s := range p.samples {
		if !s.measured || s.srv.in.IsZero() || s.srv.out.IsZero() {
			continue
		}
		id := int64(i + 1)
		root := tr.add("wire.exec", id, 0, s.start, s.end)
		tr.add("wire.server", id, root, s.srv.in, s.srv.out)
		self = append(self, float64(s.end.Sub(s.start)-s.srv.out.Sub(s.srv.in))/float64(time.Millisecond))
		bytes = append(bytes, float64(s.srv.bytesIn+s.srv.bytesOut))
		writes = append(writes, float64(s.srv.writes))
	}
	met["wire.self_ms_p50"] = metric{quantile(self, 0.5), "ms"}
	met["wire.bytes_per_cmd"] = metric{mean(bytes), "B"}
	met["wire.writes_per_cmd"] = metric{mean(writes), "count"}
}

// journalMetrics derives the journal's metrics from the timing
// filesystem's spans inside the measured phase.
func journalMetrics(met map[string]metric, tr *tracer, p *phase) {
	lo, hi := tr.at(p.t0), tr.at(p.t1)
	var appends, syncs []float64
	var appended int64
	compactions, compactS := 0, 0.0
	for _, s := range tr.snapshot() {
		if s.Start < lo || s.End > hi {
			continue
		}
		switch s.Name {
		case "journal.append":
			appends = append(appends, float64(s.dur())/float64(time.Microsecond))
			appended += s.Bytes
		case "journal.fsync":
			syncs = append(syncs, float64(s.dur())/float64(time.Millisecond))
		case "journal.compact":
			compactions++
			compactS += s.dur().Seconds()
		}
	}
	mutating := 0
	for _, s := range p.measured() {
		if s.cmd.kind.isWrite() || s.cmd.kind == kindExpand {
			mutating++
		}
	}
	met["journal.append_us"] = metric{quantile(appends, 0.5), "us"}
	met["journal.fsync_ms"] = metric{quantile(syncs, 0.5), "ms"}
	met["journal.fsyncs_per_write"] = metric{float64(len(syncs)) / float64(max(mutating, 1)), "count"}
	met["journal.bytes_per_write"] = metric{float64(appended) / float64(max(mutating, 1)), "B"}
	met["journal.compactions"] = metric{float64(compactions), "count"}
	met["journal.compact_s"] = metric{compactS, "s"}
}

// attributeJournal parents each journal span under the server-side
// command interval that contains it. Two sessions can be inside write
// commands at once; the earlier-started one holds the store's write
// lock, so it gets the span.
func attributeJournal(spans []span) {
	var servers []span
	for _, s := range spans {
		if s.Name == "wire.server" {
			servers = append(servers, s)
		}
	}
	sort.Slice(servers, func(i, j int) bool { return servers[i].Start < servers[j].Start })
	for i := range spans {
		s := &spans[i]
		if s.Name != "journal.append" && s.Name != "journal.fsync" {
			continue
		}
		j := sort.Search(len(servers), func(j int) bool { return servers[j].Start > s.Start })
		for k := j - 1; k >= 0 && k >= j-sessions-1; k-- {
			if servers[k].End >= s.End {
				s.Parent, s.Cmd = servers[k].ID, servers[k].Cmd
			}
		}
	}
}

// finish prints the outcome line and builds the result.
func finish(out io.Writer, t *tally, met map[string]metric) *result {
	for _, e := range t.errs {
		fmt.Fprintf(out, "FAILED: %s\n", e)
	}
	ratio := float64(t.failed) / float64(max(t.attempted, 1))
	fmt.Fprintf(out, "fail_ratio %g (%d of %d commands failed or failed their check)\n", ratio, t.failed, t.attempted)
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: met}
}

func printMetrics(out io.Writer, met map[string]metric) {
	names := make([]string, 0, len(met))
	for n := range met {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", n, met[n].Value, met[n].Unit)
	}
}

// quantile is the q-quantile of v by linear interpolation between
// closest ranks; 0 for no samples.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func fmtList(v []float64) string {
	s := ""
	for i, x := range v {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s
}
