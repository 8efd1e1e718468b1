package icdb

// Concurrency tests for the copy-on-write derived-state snapshots:
// streamed query visitors hold no lock, so they may run slowly, call
// back into the DB, and overlap freely with RegisterImpl — the
// engine-level counterpart of relstore's snapshot-isolation tests.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icdb/internal/genus"
)

// testImpl builds a registrable register implementation named name.
func testImpl(name string) Impl {
	return Impl{
		Name:      name,
		Component: genus.CompRegister,
		Functions: []genus.Function{genus.FuncSTORAGE},
		WidthMin:  1, WidthMax: 8, Stages: 1,
		Area: 1, Delay: 1,
		Params: []string{"size"},
		Source: fmt.Sprintf(
			"NAME: %s; PARAMETER: size; INORDER: d, clk; OUTORDER: q; { q = d @ (~r clk); }", name),
	}
}

// TestQueryScanVisitorReentersDB pins the re-entrancy contract: a
// Scan visitor may call back into the DB — including registering
// an implementation, which would self-deadlock if the stream held the
// index lock.
func TestQueryScanVisitorReentersDB(t *testing.T) {
	db := openDB(t)
	done := make(chan error, 1)
	go func() {
		first := true
		done <- db.Scan(Spec{}, func(c Candidate) bool {
			if first {
				first = false
				// Re-enter with a read and a write.
				if _, err := db.ImplByName(c.Impl.Name); err != nil {
					t.Errorf("re-entrant ImplByName: %v", err)
				}
				if err := db.RegisterImpl(testImpl("reent_reg")); err != nil {
					t.Errorf("re-entrant RegisterImpl: %v", err)
				}
			}
			return true
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Scan: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Scan with re-entrant visitor deadlocked")
	}
	if _, err := db.ImplByName("reent_reg"); err != nil {
		t.Fatalf("impl registered mid-scan is missing: %v", err)
	}
}

// TestRegisterProgressDuringSlowScan pins the writer-liveness claim: a
// visitor parked mid-stream does not block RegisterImpl, and the parked
// scan keeps yielding its pinned snapshot (never the new impl).
func TestRegisterProgressDuringSlowScan(t *testing.T) {
	db := openDB(t)
	base, err := db.Impls()
	if err != nil {
		t.Fatal(err)
	}

	parked := make(chan struct{})
	release := make(chan struct{})
	scanDone := make(chan error, 1)
	var once sync.Once
	seen := 0
	go func() {
		scanDone <- db.Scan(Spec{}, func(c Candidate) bool {
			if c.Impl.Name == "mid_scan_reg" {
				t.Errorf("scan yielded implementation registered after its snapshot was pinned")
			}
			seen++
			once.Do(func() {
				close(parked)
				<-release
			})
			return true
		})
	}()

	<-parked
	regDone := make(chan error, 1)
	go func() { regDone <- db.RegisterImpl(testImpl("mid_scan_reg")) }()
	select {
	case err := <-regDone:
		if err != nil {
			t.Fatalf("RegisterImpl during parked scan: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RegisterImpl blocked behind a parked scan visitor")
	}
	close(release)
	if err := <-scanDone; err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if seen != len(base) {
		t.Errorf("parked scan yielded %d implementations, want the %d in its snapshot", seen, len(base))
	}
	// A fresh query observes the registration.
	if _, err := db.ImplByName("mid_scan_reg"); err != nil {
		t.Fatalf("mid_scan_reg missing after scan: %v", err)
	}
}

// TestConcurrentQueriesAndRegistrations hammers ranked queries,
// streamed scans with re-entrant point reads, registrations, estimator
// updates, and cache invalidations against each other. Run under -race
// it is the engine-level counterpart of relstore's stress test.
func TestConcurrentQueriesAndRegistrations(t *testing.T) {
	db := openDB(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scans, queries, writes atomic.Int64

	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := db.Scan(Spec{Functions: []genus.Function{genus.FuncSTORAGE}}, func(c Candidate) bool {
					if _, err := db.ImplByName(c.Impl.Name); err != nil {
						t.Errorf("re-entrant ImplByName(%s): %v", c.Impl.Name, err)
						return false
					}
					return true
				})
				if err != nil {
					t.Errorf("scan: %v", err)
					return
				}
				scans.Add(1)
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Query(Spec{Type: genus.CompCounter, Where: []Constraint{AtWidth(8)}, Limit: 3}); err != nil {
					t.Errorf("ranked query: %v", err)
					return
				}
				queries.Add(1)
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("stress_%d_%d", g, i%10)
				if err := db.RegisterImpl(testImpl(name)); err != nil {
					t.Errorf("register %s: %v", name, err)
					return
				}
				if err := db.RegisterEstimator(name, "area", fmt.Sprintf("width * %d", g+2)); err != nil {
					t.Errorf("estimator %s: %v", name, err)
					return
				}
				if i%7 == 0 {
					db.InvalidateCaches()
				}
				writes.Add(1)
			}
		}(g)
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if scans.Load() == 0 || queries.Load() == 0 || writes.Load() == 0 {
		t.Fatalf("stress made no progress: scans=%d queries=%d writes=%d",
			scans.Load(), queries.Load(), writes.Load())
	}
	t.Logf("stress: %d scans, %d ranked queries, %d write rounds",
		scans.Load(), queries.Load(), writes.Load())
}

// TestWeightsConstraint pins the per-query ranking-weight override:
// Weights rescores without filtering, beats the database defaults, and
// the last of several wins.
func TestWeightsConstraint(t *testing.T) {
	db := openDB(t)
	// Database defaults skew heavily toward area...
	if err := db.SetToolParam("icdb", "area_weight", 100); err != nil {
		t.Fatal(err)
	}
	byDefault, err := db.Query(Spec{Type: genus.CompCounter})
	if err != nil || len(byDefault) == 0 {
		t.Fatalf("default query: %v (%d candidates)", err, len(byDefault))
	}
	// ...but a Weights override scores delay only.
	byDelay, err := db.Query(Spec{Type: genus.CompCounter, Where: []Constraint{Weights(0, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(byDelay) != len(byDefault) {
		t.Fatalf("Weights filtered: %d candidates, want %d", len(byDelay), len(byDefault))
	}
	for _, c := range byDelay {
		if c.Cost != c.Delay {
			t.Errorf("%s: cost %g under Weights(0,1), want delay %g", c.Impl.Name, c.Cost, c.Delay)
		}
	}
	// Last Weights wins.
	cands, err := db.Query(Spec{Type: genus.CompCounter, Where: []Constraint{Weights(0, 1), Weights(1, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Cost != c.Area {
			t.Errorf("%s: cost %g under last-wins Weights(1,0), want area %g", c.Impl.Name, c.Cost, c.Area)
		}
	}
	// RankWeights reports the database defaults, not the override.
	if wa, wd := db.RankWeights(); wa != 100 || wd != 1 {
		t.Errorf("RankWeights = (%g, %g), want (100, 1)", wa, wd)
	}
}
