package icdb_test

// Benchmarks for the ICDB read path over synthetic catalogs of 1k/10k/
// 100k implementations (see internal/benchgen). Each *FullScan benchmark
// is the pre-index reference path, kept in-tree so every future commit
// can reproduce the before/after comparison recorded in BENCH_PR2.json.

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"icdb/internal/benchgen"
	"icdb/internal/expand"
	"icdb/internal/genus"
	"icdb/internal/icdb"
	"icdb/internal/relstore"
)

var benchSizes = []int{1000, 10000, 100000}

var (
	benchMu  sync.Mutex
	benchDBs = map[int]*icdb.DB{}
)

// benchDB returns the n-implementation catalog, built once per process
// and shared (read-only) by all benchmarks.
func benchDB(b *testing.B, n int) *icdb.DB {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if db, ok := benchDBs[n]; ok {
		return db
	}
	db, err := benchgen.NewDB(n)
	if err != nil {
		b.Fatal(err)
	}
	benchDBs[n] = db
	return db
}

func sizeRun(b *testing.B, f func(b *testing.B, n int)) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f(b, n)
		})
	}
}

func BenchmarkQueryByFunction(b *testing.B) {
	sizeRun(b, func(b *testing.B, n int) {
		db := benchDB(b, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cands, err := db.Query(icdb.Spec{Functions: []genus.Function{genus.FuncADD}, Where: []icdb.Constraint{icdb.MaxArea(50)}})
			if err != nil || len(cands) == 0 {
				b.Fatal(err, len(cands))
			}
		}
	})
}

func BenchmarkQueryByFunctionFullScan(b *testing.B) {
	sizeRun(b, func(b *testing.B, n int) {
		db := benchDB(b, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cands, err := benchgen.FullScanQueryByFunction(db, genus.FuncADD, icdb.MaxArea(50))
			if err != nil || len(cands) == 0 {
				b.Fatal(err, len(cands))
			}
		}
	})
}

// BenchmarkQueryByFunctionScan is the streaming result path: same
// candidate set as BenchmarkQueryByFunction, but yielded row by row with
// O(1) allocation per row instead of materialized, cloned, and sorted.
func BenchmarkQueryByFunctionScan(b *testing.B) {
	sizeRun(b, func(b *testing.B, n int) {
		db := benchDB(b, n)
		b.ReportAllocs()
		b.ResetTimer()
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
}

func BenchmarkQueryByFunctionsTopK(b *testing.B) {
	sizeRun(b, func(b *testing.B, n int) {
		db := benchDB(b, n)
		fns := []genus.Function{genus.FuncADD, genus.FuncSUB}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cands, err := db.Query(icdb.Spec{Functions: fns, Where: []icdb.Constraint{icdb.ForWidth(8)}, Limit: 5})
			if err != nil || len(cands) == 0 {
				b.Fatal(err, len(cands))
			}
		}
	})
}

func BenchmarkImplByName(b *testing.B) {
	sizeRun(b, func(b *testing.B, n int) {
		db := benchDB(b, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.ImplByName(benchgen.NameOf(i % n)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkImplByNameFullScan(b *testing.B) {
	sizeRun(b, func(b *testing.B, n int) {
		db := benchDB(b, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := benchgen.FullScanImplRow(db, benchgen.NameOf(i%n)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkRegisterImpl(b *testing.B) {
	db := benchDB(b, 1000)
	im := benchgen.ImplAt(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.RegisterImpl(im); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExpandCold measures a full expansion with empty memo caches;
// BenchmarkExpandWarm measures the template-cache hit path.
func BenchmarkExpandCold(b *testing.B) {
	db, err := icdb.Open(relstore.New())
	if err != nil {
		b.Fatal(err)
	}
	params := map[string]int{"size": 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expand.New(db).ExpandImpl("cnt_up", params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpandWarm(b *testing.B) {
	db, err := icdb.Open(relstore.New())
	if err != nil {
		b.Fatal(err)
	}
	ex := expand.New(db)
	params := map[string]int{"size": 8}
	if _, err := ex.ExpandImpl("cnt_up", params); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.ExpandImpl("cnt_up", params); err != nil {
			b.Fatal(err)
		}
	}
}

// Persistence of the whole catalog, in both formats. The snapshot pair
// is the fast path (bulk-built indexes, no per-row validation); the JSON
// pair is the compat path it replaced on the hot loop.
func BenchmarkSaveSnapshot(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db := benchDB(b, n)
			path := filepath.Join(b.TempDir(), "icdb.snap")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.Store().SaveSnapshot(path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLoadSnapshot(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db := benchDB(b, n)
			path := filepath.Join(b.TempDir(), "icdb.snap")
			if err := db.Store().SaveSnapshot(path); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := relstore.LoadSnapshot(path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSave(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db := benchDB(b, n)
			path := filepath.Join(b.TempDir(), "icdb.json")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.Store().Save(path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLoad(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db := benchDB(b, n)
			path := filepath.Join(b.TempDir(), "icdb.json")
			if err := db.Store().Save(path); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := relstore.Load(path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
