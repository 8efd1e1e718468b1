// bench.go implements "icdbq bench": programmatic benchmarks of the ICDB
// read and persistence paths over synthetic catalogs, emitted as a JSON
// trajectory file (BENCH_PR<N>.json) so performance is tracked commit
// over commit. Each measurement is paired with its reference path —
// indexed queries against the in-tree full-scan engine they replaced,
// binary snapshot persistence against the JSON compat path, streamed
// results against materialized ones — reproducing every before/after
// comparison on whatever machine runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"icdb/internal/benchgen"
	"icdb/internal/expand"
	"icdb/internal/genus"
	"icdb/internal/icdb"
	"icdb/internal/relstore"
)

// prePRBaseline pins numbers measured on earlier read/persistence paths
// on the reference container (Intel Xeon @ 2.10GHz), so the trajectory
// keeps the actual before-change measurements even after the slow paths
// improve or disappear:
//
//   - query_by_function / impl_by_name: the pre-index engine
//     (commit 5f6c9fa, before PR 2's planner and inverted indexes);
//   - save_json / load_json and the round-trip alloc count: the
//     whole-store JSON persistence measured in BENCH_PR2.json (commit
//     7e2e007, before PR 3's binary snapshot format).
var prePRBaseline = map[string]map[string]float64{
	"query_by_function_ns_per_op":   {"1000": 1995273, "10000": 22741848},
	"impl_by_name_ns_per_op":        {"1000": 163993, "10000": 2492863},
	"save_json_ns_per_op":           {"1000": 7565606, "10000": 81215169},
	"load_json_ns_per_op":           {"1000": 10527788, "10000": 124847356},
	"json_round_trip_allocs_per_op": {"1000": 77678, "10000": 766057},
}

type benchMeasure struct {
	Name        string  `json:"name"`
	Size        int     `json:"size,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchComparison pairs one measurement with the reference path it
// replaced: Speedup and AllocRatio are baseline/new (bigger is better).
type benchComparison struct {
	Name            string  `json:"name"`
	Size            int     `json:"size"`
	Baseline        string  `json:"baseline"`
	NsPerOp         float64 `json:"ns_per_op"`
	BaselineNsPerOp float64 `json:"baseline_ns_per_op"`
	Speedup         float64 `json:"speedup"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BaselineAllocs  int64   `json:"baseline_allocs_per_op"`
	AllocRatio      float64 `json:"alloc_ratio"`
}

type benchReport struct {
	Tool           string                        `json:"tool"`
	GOOS           string                        `json:"goos"`
	GOARCH         string                        `json:"goarch"`
	CPUs           int                           `json:"cpus"`
	GoVersion      string                        `json:"go_version"`
	Benchtime      string                        `json:"benchtime"`
	Sizes          []int                         `json:"sizes"`
	PrePRBaseline  map[string]map[string]float64 `json:"pre_pr_baseline"`
	Comparisons    []benchComparison             `json:"comparisons"`
	Measurements   []benchMeasure                `json:"measurements"`
	WireBench      *wireBenchResult              `json:"wire_concurrent_clients,omitempty"`
	WireBenchChaos *wireBenchResult              `json:"wire_concurrent_clients_chaos,omitempty"`
	Journal        *journalBenchResult           `json:"journal,omitempty"`
	Explore        []exploreBenchResult          `json:"explore,omitempty"`
	OpenLatency    []openBenchResult             `json:"open_latency,omitempty"`
}

func compare(name string, size int, baseline string, now, was benchMeasure) benchComparison {
	c := benchComparison{
		Name: name, Size: size, Baseline: baseline,
		NsPerOp: now.NsPerOp, BaselineNsPerOp: was.NsPerOp,
		AllocsPerOp: now.AllocsPerOp, BaselineAllocs: was.AllocsPerOp,
	}
	if now.NsPerOp > 0 {
		c.Speedup = was.NsPerOp / now.NsPerOp
	}
	if now.AllocsPerOp > 0 {
		c.AllocRatio = float64(was.AllocsPerOp) / float64(now.AllocsPerOp)
	}
	return c
}

func runBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	sizesFlag := fs.String("sizes", "1000,10000", "comma-separated catalog sizes")
	out := fs.String("out", defaultBenchOut, "output JSON path")
	benchtime := fs.String("benchtime", "300ms", "per-benchmark measuring time")
	guard := fs.Bool("guard", false, "fail unless LoadSnapshot beats JSON Load at the 10000 size")
	conns := fs.Int("conns", 200, "concurrent clients for the wire-server scenario (0 disables it)")
	chaos := fs.Bool("chaos", false, "also run the wire scenario with a quarter of the clients misbehaving")
	jwrite := fs.Int("jwrite", 10000, "catalog size for the journal steady-state write scenario (0 disables the journal scenarios)")
	jopen := fs.Int("jopen", 100000, "catalog size for the journal cold-open scenario")
	jrecords := fs.Int("jrecords", 1000, "journal records replayed in the cold-open scenario")
	explore := fs.Bool("explore", true, "run the design-space frontier scenario at each catalog size")
	openlat := fs.String("openlat", "100000,1000000", "comma-separated row counts for the snapshot open-latency scenario (empty disables it)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var sizes []int
	for _, s := range strings.Split(*sizesFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return fmt.Errorf("bad size %q", s)
		}
		sizes = append(sizes, n)
	}
	// testing.Benchmark reads the test.benchtime flag; register the
	// testing flags and set it explicitly.
	testing.Init()
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		return err
	}

	report := benchReport{
		Tool:          "icdbq bench",
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
		GoVersion:     runtime.Version(),
		Benchtime:     *benchtime,
		Sizes:         sizes,
		PrePRBaseline: prePRBaseline,
	}

	measure := func(name string, size int, f func(b *testing.B)) benchMeasure {
		r := testing.Benchmark(f)
		m := benchMeasure{
			Name:        name,
			Size:        size,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		fmt.Fprintf(os.Stderr, "%-28s n=%-7d %12.0f ns/op %8d allocs/op\n", name, size, m.NsPerOp, m.AllocsPerOp)
		return m
	}

	tmp, err := os.MkdirTemp("", "icdbq-bench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	guardResults := map[string]benchMeasure{}

	for _, n := range sizes {
		fmt.Fprintf(os.Stderr, "building %d-implementation catalog...\n", n)
		db, err := benchgen.NewDB(n)
		if err != nil {
			return err
		}
		// Warm the lazily built inverted indexes so measurements see
		// steady state.
		if _, err := db.Query(icdb.Spec{Functions: []genus.Function{genus.FuncADD}}); err != nil {
			return err
		}
		// Cross-validate the two result paths before timing them: the
		// streamed query must yield exactly the materialized set.
		mat, err := db.Query(icdb.Spec{Functions: []genus.Function{genus.FuncADD}, Where: []icdb.Constraint{icdb.MaxArea(50)}})
		if err != nil {
			return err
		}
		str, err := benchgen.StreamedQueryByFunction(db, genus.FuncADD, icdb.MaxArea(50))
		if err != nil {
			return err
		}
		if len(mat) != len(str) {
			return fmt.Errorf("size %d: streamed query yielded %d candidates, materialized %d", n, len(str), len(mat))
		}
		for i := range mat {
			if mat[i].Impl.Name != str[i].Impl.Name || mat[i].Cost != str[i].Cost {
				return fmt.Errorf("size %d: streamed candidate %d = %s/%g, materialized %s/%g",
					n, i, str[i].Impl.Name, str[i].Cost, mat[i].Impl.Name, mat[i].Cost)
			}
		}

		qIdx := measure("query_by_function", n, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(icdb.Spec{Functions: []genus.Function{genus.FuncADD}, Where: []icdb.Constraint{icdb.MaxArea(50)}}); err != nil {
					b.Fatal(err)
				}
			}
		})
		qScan := measure("query_by_function_fullscan", n, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := benchgen.FullScanQueryByFunction(db, genus.FuncADD, icdb.MaxArea(50)); err != nil {
					b.Fatal(err)
				}
			}
		})
		qStream := measure("query_by_function_scan", n, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows := 0
				err := db.Scan(icdb.Spec{Functions: []genus.Function{genus.FuncADD}, Where: []icdb.Constraint{icdb.MaxArea(50)}}, func(c icdb.Candidate) bool {
					rows++
					return true
				})
				if err != nil || rows == 0 {
					b.Fatal(err, rows)
				}
			}
		})
		lIdx := measure("impl_by_name", n, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.ImplByName(benchgen.NameOf(i % n)); err != nil {
					b.Fatal(err)
				}
			}
		})
		lScan := measure("impl_by_name_fullscan", n, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := benchgen.FullScanImplRow(db, benchgen.NameOf(i%n)); err != nil {
					b.Fatal(err)
				}
			}
		})
		topK := measure("query_topk5", n, func(b *testing.B) {
			b.ReportAllocs()
			fns := []genus.Function{genus.FuncADD, genus.FuncSUB}
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(icdb.Spec{Functions: fns, Where: []icdb.Constraint{icdb.ForWidth(8)}, Limit: 5}); err != nil {
					b.Fatal(err)
				}
			}
		})

		jsonPath := filepath.Join(tmp, fmt.Sprintf("save%d.json", n))
		snapPath := filepath.Join(tmp, fmt.Sprintf("save%d.snap", n))
		saveJSON := measure("save_json", n, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := db.Store().Save(jsonPath); err != nil {
					b.Fatal(err)
				}
			}
		})
		saveSnap := measure("save_snapshot", n, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := db.Store().SaveSnapshot(snapPath); err != nil {
					b.Fatal(err)
				}
			}
		})

		// Width-aware cost model: the same ordered TopK query with the
		// estimator expressions evaluated per candidate at width 16,
		// against the scalar engine filtered to the same coverage. Every
		// synthetic implementation carries an "area * width" estimator
		// (see benchgen.PopulateEstimators), which is order-preserving for
		// a fixed width, so the two paths must return identical names —
		// cross-validated before timing. Estimators are registered only
		// after the save benchmarks above, so the persisted catalogs stay
		// row-for-row comparable with the BENCH_PR3 trajectory.
		if err := benchgen.PopulateEstimators(db, n); err != nil {
			return err
		}
		ordFns := []genus.Function{genus.FuncADD}
		ordScalar, err := db.Query(icdb.Spec{Functions: ordFns, Where: []icdb.Constraint{icdb.ForWidth(16)}, Order: icdb.Order{Attr: "area"}, Limit: 10})
		if err != nil {
			return err
		}
		ordWidth, err := db.Query(icdb.Spec{Functions: ordFns, Where: []icdb.Constraint{icdb.AtWidth(16)}, Order: icdb.Order{Attr: "area"}, Limit: 10})
		if err != nil {
			return err
		}
		if len(ordScalar) != len(ordWidth) {
			return fmt.Errorf("size %d: width-aware query yielded %d candidates, scalar %d", n, len(ordWidth), len(ordScalar))
		}
		for i := range ordScalar {
			if ordScalar[i].Impl.Name != ordWidth[i].Impl.Name || ordWidth[i].Area != 16*ordScalar[i].Area {
				return fmt.Errorf("size %d: width-aware candidate %d = %s/%g, scalar %s/%g",
					n, i, ordWidth[i].Impl.Name, ordWidth[i].Area, ordScalar[i].Impl.Name, ordScalar[i].Area)
			}
		}
		ordScalarM := measure("query_ordered_scalar", n, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(icdb.Spec{Functions: ordFns, Where: []icdb.Constraint{icdb.ForWidth(16)}, Order: icdb.Order{Attr: "area"}, Limit: 10}); err != nil {
					b.Fatal(err)
				}
			}
		})
		ordWidthM := measure("query_ordered_at_width", n, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(icdb.Spec{Functions: ordFns, Where: []icdb.Constraint{icdb.AtWidth(16)}, Order: icdb.Order{Attr: "area"}, Limit: 10}); err != nil {
					b.Fatal(err)
				}
			}
		})

		// Design-space frontier scenario: an n-point exploration cloud
		// recorded into the same catalog, with one full streamed
		// "find pareto" (dominated points included) timed against the
		// width-aware ordered query above — the ranked find path the
		// frontier engine extends.
		if *explore {
			par, eb, err := runExploreBench(db, n, ordWidthM, measure)
			if err != nil {
				return fmt.Errorf("explore bench: %w", err)
			}
			report.Comparisons = append(report.Comparisons,
				compare("find_pareto", n, "ordered find at the same catalog size", par, ordWidthM))
			report.Measurements = append(report.Measurements, par)
			report.Explore = append(report.Explore, *eb)
			fmt.Fprintf(os.Stderr, "find_pareto n=%d: frontier %d/%d, %.2fx the ordered find\n",
				n, eb.FrontierSize, eb.Points, eb.CostRatio)
			if *guard && n == 10000 && eb.CostRatio > 5 {
				return fmt.Errorf("bench guard: 10k-point find pareto (%.0f ns/op) is %.2fx the same-size ordered find (%.0f ns/op), want <= 5x",
					eb.ParetoNsPerOp, eb.CostRatio, eb.OrderedFindNsPerOp)
			}
		}

		// Release the source catalog before the load benchmarks: loading
		// is the tool-startup path, and keeping a dead 100k-impl catalog
		// resident would only add GC noise to both formats' numbers.
		db = nil
		runtime.GC()

		loadJSON := measure("load_json", n, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := relstore.Load(jsonPath); err != nil {
					b.Fatal(err)
				}
			}
		})
		loadSnap := measure("load_snapshot", n, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := relstore.LoadSnapshot(snapPath); err != nil {
					b.Fatal(err)
				}
			}
		})

		report.Comparisons = append(report.Comparisons,
			compare("query_by_function", n, "full scan (pre-index path)", qIdx, qScan),
			compare("impl_by_name", n, "full scan (pre-index path)", lIdx, lScan),
			compare("query_by_function_stream", n, "materialized Query", qStream, qIdx),
			compare("query_ordered_at_width", n, "scalar ordered query (same coverage filter)", ordWidthM, ordScalarM),
			compare("persistence_round_trip", n, "JSON Save+Load", benchMeasure{
				NsPerOp:     saveSnap.NsPerOp + loadSnap.NsPerOp,
				AllocsPerOp: saveSnap.AllocsPerOp + loadSnap.AllocsPerOp,
			}, benchMeasure{
				NsPerOp:     saveJSON.NsPerOp + loadJSON.NsPerOp,
				AllocsPerOp: saveJSON.AllocsPerOp + loadJSON.AllocsPerOp,
			}),
		)
		report.Measurements = append(report.Measurements,
			qIdx, qScan, qStream, lIdx, lScan, topK, ordScalarM, ordWidthM,
			saveJSON, saveSnap, loadJSON, loadSnap)

		if n == 10000 {
			guardResults["load_json"] = loadJSON
			guardResults["load_snapshot"] = loadSnap
		}
	}

	// Catalog-size-independent measurements.
	db, err := icdb.Open(relstore.New())
	if err != nil {
		return err
	}
	params := map[string]int{"size": 8}
	report.Measurements = append(report.Measurements,
		measure("expand_cold", 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := expand.New(db).ExpandImpl("cnt_up", params); err != nil {
					b.Fatal(err)
				}
			}
		}),
		measure("register_impl", 0, func(b *testing.B) {
			b.ReportAllocs()
			im := benchgen.ImplAt(0)
			for i := 0; i < b.N; i++ {
				if err := db.RegisterImpl(im); err != nil {
					b.Fatal(err)
				}
			}
		}),
	)

	// Durability scenario: journaled steady-state writes vs per-mutation
	// snapshot rewrites, and snapshot+replay cold open vs snapshot-only.
	if *jwrite > 0 {
		jb, err := runJournalBench(tmp, *jwrite, *jopen, *jrecords, measure)
		if err != nil {
			return fmt.Errorf("journal bench: %w", err)
		}
		report.Journal = jb
		fmt.Fprintf(os.Stderr, "journal write speedup %.1fx (vs snapshot rewrite at n=%d), durable open %.2fx snapshot-only (n=%d + %d records)\n",
			jb.WriteSpeedup, jb.WriteSize, jb.OpenRatio, jb.OpenSize, jb.JournalRecords)
		if *guard {
			if jb.WriteSpeedup < 5 {
				return fmt.Errorf("bench guard: journaled write (%.0f ns/op) is only %.1fx the per-mutation snapshot rewrite (%.0f ns/op) at %d rows, want >= 5x",
					jb.JournalWriteNsPerOp, jb.WriteSpeedup, jb.SnapshotWriteNsPerOp, jb.WriteSize)
			}
			if jb.OpenRatio > 2 {
				return fmt.Errorf("bench guard: durable open (%.0f ns/op) is %.2fx the snapshot-only open (%.0f ns/op) at %d rows, want <= 2x",
					jb.DurableOpenNsPerOp, jb.OpenRatio, jb.SnapOpenNsPerOp, jb.OpenSize)
			}
		}
	}

	// Open-latency scenario: what v4's section directory buys at boot —
	// lazy time-to-first-query against eager, parallel section decode
	// against serial, and the v4 directory's overhead against v3.
	if *openlat != "" {
		var openSizes []int
		for _, s := range strings.Split(*openlat, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				return fmt.Errorf("bad -openlat size %q", s)
			}
			openSizes = append(openSizes, n)
		}
		largest := openSizes[0]
		for _, n := range openSizes {
			if n > largest {
				largest = n
			}
		}
		for _, n := range openSizes {
			ob, err := runOpenBench(benchgen.CacheDir(), n, 1, *benchtime)
			if err != nil {
				return fmt.Errorf("open bench: %w", err)
			}
			report.OpenLatency = append(report.OpenLatency, *ob)
			fmt.Fprintf(os.Stderr, "open n=%d: ttfq lazy/eager %.3fx, parallel decode %.2fx serial, v4/v3 eager %.2fx\n",
				n, ob.TTFQRatio, ob.ParallelSpeedup, ob.V4EagerOverV3)
			if !*guard {
				continue
			}
			if n == 100000 && ob.TTFQRatio > 0.2 {
				return fmt.Errorf("bench guard: lazy time-to-first-query (%.0f ns/op) is %.3fx eager (%.0f ns/op) at %d rows, want <= 0.2x",
					ob.TTFQLazyNsPerOp, ob.TTFQRatio, ob.TTFQEagerNsPerOp, n)
			}
			if n == largest {
				if runtime.NumCPU() >= 4 && ob.ParallelSpeedup < 1.5 {
					return fmt.Errorf("bench guard: parallel eager decode (%.0f ns/op) is only %.2fx serial (%.0f ns/op) at %d rows on %d CPUs, want >= 1.5x",
						ob.V4ParallelNsPerOp, ob.ParallelSpeedup, ob.V4SerialNsPerOp, n, runtime.NumCPU())
				}
				if ob.V4EagerOverV3 > 1.1 {
					return fmt.Errorf("bench guard: v4 eager open (%.0f ns/op) is %.2fx the v3 open (%.0f ns/op) at %d rows, want <= 1.1x",
						ob.V4ParallelNsPerOp, ob.V4EagerOverV3, ob.V3EagerNsPerOp, n)
				}
			}
		}
	}

	// Concurrent-client scenario: an in-process wire server under mixed
	// find/generate/expand traffic from hundreds of sessions. Any command
	// error fails the bench — under load the server must stay correct.
	if *conns > 0 {
		wb, err := runWireBench(*conns, 25, 2000, false)
		if err != nil {
			return fmt.Errorf("wire bench: %w", err)
		}
		report.WireBench = wb

		// Chaos variant: same healthy traffic shape, but every fourth
		// connection misbehaves (cancels, stalls, garbage handshakes,
		// quota exhaustion) against a server running tight limits. The
		// healthy clients' p99 staying within a small factor of the
		// clean run is the isolation claim, measured.
		if *chaos {
			wbc, err := runWireBench(*conns, 25, 2000, true)
			if err != nil {
				return fmt.Errorf("wire chaos bench: %w", err)
			}
			report.WireBenchChaos = wbc
			ratio := wbc.LatencyUsP99 / wb.LatencyUsP99
			fmt.Fprintf(os.Stderr, "chaos p99 / clean p99 = %.2fx\n", ratio)
			if *guard && ratio > 3 {
				return fmt.Errorf("bench guard: chaos p99 (%.0fus) is %.2fx clean p99 (%.0fus), want <= 3x",
					wbc.LatencyUsP99, ratio, wb.LatencyUsP99)
			}
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	for _, c := range report.Comparisons {
		fmt.Printf("%s n=%d: %.0f ns/op vs %.0f ns/op %s (%.1fx, %.1fx fewer allocs)\n",
			c.Name, c.Size, c.NsPerOp, c.BaselineNsPerOp, c.Baseline, c.Speedup, c.AllocRatio)
	}

	if *guard {
		lj, okJ := guardResults["load_json"]
		ls, okS := guardResults["load_snapshot"]
		if !okJ || !okS {
			return fmt.Errorf("bench guard needs the 10000 size in -sizes (got %v)", sizes)
		}
		if ls.NsPerOp >= lj.NsPerOp {
			return fmt.Errorf("bench guard: LoadSnapshot (%.0f ns/op) is not faster than JSON Load (%.0f ns/op) at 10000 implementations",
				ls.NsPerOp, lj.NsPerOp)
		}
		fmt.Fprintf(os.Stderr, "guard ok: LoadSnapshot %.0f ns/op < JSON Load %.0f ns/op at n=10000 (%.1fx)\n",
			ls.NsPerOp, lj.NsPerOp, lj.NsPerOp/ls.NsPerOp)
	}
	return nil
}
