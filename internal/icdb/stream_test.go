package icdb_test

// Streaming query tests: the Scan variants must yield exactly the
// candidate set their materializing counterparts return (same impls,
// same costs), honor constraints and early stop, and hand out Impls
// that Clone into independent copies.

import (
	"path/filepath"
	"sort"
	"testing"

	"icdb/internal/genus"
	"icdb/internal/icdb"
	"icdb/internal/relstore"
)

func openTestDB(t *testing.T) *icdb.DB {
	t.Helper()
	db, err := icdb.Open(relstore.New())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// collectScan drains a streamed query into a cost-sorted slice, cloning
// each yielded Impl as the visitor contract requires.
func collectScan(t *testing.T, scan func(func(icdb.Candidate) bool) error) []icdb.Candidate {
	t.Helper()
	var out []icdb.Candidate
	if err := scan(func(c icdb.Candidate) bool {
		c.Impl = c.Impl.Clone()
		out = append(out, c)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Cost != out[j].Cost {
			return out[i].Cost < out[j].Cost
		}
		return out[i].Impl.Name < out[j].Impl.Name
	})
	return out
}

func assertSameCandidates(t *testing.T, got, want []icdb.Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("streamed %d candidates, materialized %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Impl.Name != want[i].Impl.Name || got[i].Cost != want[i].Cost {
			t.Errorf("candidate %d = %s/%g, want %s/%g",
				i, got[i].Impl.Name, got[i].Cost, want[i].Impl.Name, want[i].Cost)
		}
	}
}

func TestQueryByFunctionScanMatchesMaterialized(t *testing.T) {
	db := openTestDB(t)
	for _, cs := range [][]icdb.Constraint{
		nil,
		{icdb.ForWidth(8)},
		{icdb.MaxArea(6), icdb.MaxDelay(50)},
		{icdb.MustWhere("width_min <= 4 && area <= 10")},
	} {
		want, err := db.Query(icdb.Spec{Functions: []genus.Function{genus.FuncADD}, Where: cs})
		if err != nil {
			t.Fatal(err)
		}
		got := collectScan(t, func(visit func(icdb.Candidate) bool) error {
			return db.Scan(icdb.Spec{Functions: []genus.Function{genus.FuncADD}, Where: cs}, visit)
		})
		assertSameCandidates(t, got, want)
	}
}

func TestQueryByFunctionsScanIntersection(t *testing.T) {
	db := openTestDB(t)
	fns := []genus.Function{genus.FuncCOUNTER, genus.FuncSTORE}
	want, err := db.Query(icdb.Spec{Functions: fns})
	if err != nil {
		t.Fatal(err)
	}
	got := collectScan(t, func(visit func(icdb.Candidate) bool) error {
		return db.Scan(icdb.Spec{Functions: fns}, visit)
	})
	assertSameCandidates(t, got, want)
	if len(got) == 0 {
		t.Fatal("COUNT+STORE intersection is empty; test is vacuous")
	}
	// Streaming an empty function list is the same error as querying one.
	if err := db.Scan(icdb.Spec{Functions: []genus.Function{}}, func(icdb.Candidate) bool { return true }); err == nil {
		t.Error("empty function list accepted")
	}
}

func TestQueryByComponentScanMatchesMaterialized(t *testing.T) {
	db := openTestDB(t)
	want, err := db.Query(icdb.Spec{Type: genus.CompCounter})
	if err != nil {
		t.Fatal(err)
	}
	got := collectScan(t, func(visit func(icdb.Candidate) bool) error {
		return db.Scan(icdb.Spec{Type: genus.CompCounter}, visit)
	})
	assertSameCandidates(t, got, want)
	if err := db.Scan(icdb.Spec{Type: "NoSuchComponent"}, func(icdb.Candidate) bool { return true }); err == nil {
		t.Error("unknown component type accepted")
	}
}

// TestScanFunctionsOfTypeMatchesQuery: a spec selecting both functions
// and a component type streams exactly the set Query ranks for it — the
// type filter narrows the function postings in the stream itself.
func TestScanFunctionsOfTypeMatchesQuery(t *testing.T) {
	db := openTestDB(t)
	spec := icdb.Spec{
		Functions: []genus.Function{genus.FuncSTORAGE},
		Type:      genus.CompCounter,
		Where:     []icdb.Constraint{icdb.AtWidth(8)},
	}
	want, err := db.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := collectScan(t, func(visit func(icdb.Candidate) bool) error {
		return db.Scan(spec, visit)
	})
	assertSameCandidates(t, got, want)
	for _, c := range got {
		if c.Impl.Component != genus.CompCounter {
			t.Errorf("%s is a %s, not a Counter", c.Impl.Name, c.Impl.Component)
		}
	}
	untyped, err := db.Query(icdb.Spec{Functions: spec.Functions, Where: spec.Where})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) == len(untyped) {
		t.Fatalf("typed scan = %d of %d STORAGE candidates; test is vacuous", len(got), len(untyped))
	}
}

// TestScanRejectsOrderAndLimit: a stream has no order and no bound, so a
// Scan spec carrying either is an error, not silently ignored.
func TestScanRejectsOrderAndLimit(t *testing.T) {
	db := openTestDB(t)
	fns := []genus.Function{genus.FuncSTORAGE}
	for _, spec := range []icdb.Spec{
		{Functions: fns, Order: icdb.Order{Attr: "area"}},
		{Functions: fns, Order: icdb.Order{Desc: true}},
		{Functions: fns, Limit: 3},
		{Limit: -1},
	} {
		visited := 0
		if err := db.Scan(spec, func(icdb.Candidate) bool { visited++; return true }); err == nil {
			t.Errorf("Scan(%+v) accepted", spec)
		}
		if visited != 0 {
			t.Errorf("Scan(%+v) visited %d candidates before rejecting", spec, visited)
		}
	}
}

func TestQueryScanWalksWholeCatalog(t *testing.T) {
	db := openTestDB(t)
	impls, err := db.Impls()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	if err := db.Scan(icdb.Spec{}, func(c icdb.Candidate) bool {
		seen[c.Impl.Name] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(impls) {
		t.Fatalf("Scan visited %d impls, catalog has %d", len(seen), len(impls))
	}
	for _, im := range impls {
		if !seen[im.Name] {
			t.Errorf("Scan missed %s", im.Name)
		}
	}
	// Constrained walk matches a manual filter of the materialized list.
	n := 0
	if err := db.Scan(icdb.Spec{Where: []icdb.Constraint{icdb.MaxArea(4)}}, func(c icdb.Candidate) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	wantN := 0
	for _, im := range impls {
		if im.Area <= 4 {
			wantN++
		}
	}
	if n != wantN {
		t.Errorf("constrained Scan yielded %d, want %d", n, wantN)
	}
}

func TestScanEarlyStop(t *testing.T) {
	db := openTestDB(t)
	n := 0
	if err := db.Scan(icdb.Spec{Functions: []genus.Function{genus.FuncADD}}, func(c icdb.Candidate) bool {
		n++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("visitor called %d times after returning false, want 1", n)
	}
	// The DB is fully usable afterwards (the index lock was released).
	if _, err := db.Query(icdb.Spec{Functions: []genus.Function{genus.FuncADD}}); err != nil {
		t.Fatal(err)
	}
}

func TestScanConstraintErrorPropagates(t *testing.T) {
	db := openTestDB(t)
	bad := icdb.MustWhere("no_such_attr > 1")
	called := false
	err := db.Scan(icdb.Spec{Functions: []genus.Function{genus.FuncADD}, Where: []icdb.Constraint{bad}}, func(c icdb.Candidate) bool {
		called = true
		return true
	})
	if err == nil {
		t.Fatal("constraint referencing an unknown attribute: want error")
	}
	if called {
		t.Error("visitor ran despite the constraint error")
	}
	// The materialized path reports the same failure.
	if _, err := db.Query(icdb.Spec{Functions: []genus.Function{genus.FuncADD}, Where: []icdb.Constraint{bad}}); err == nil {
		t.Error("materialized query swallowed the constraint error")
	}
}

func TestScanCloneIndependence(t *testing.T) {
	db := openTestDB(t)
	var kept icdb.Impl
	if err := db.Scan(icdb.Spec{Functions: []genus.Function{genus.FuncADD}}, func(c icdb.Candidate) bool {
		kept = c.Impl.Clone()
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if kept.Name == "" {
		t.Fatal("no candidate yielded")
	}
	orig, err := db.ImplByName(kept.Name)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the clone's slices must not reach the cache.
	if len(kept.Functions) == 0 {
		t.Fatal("cloned impl has no functions")
	}
	kept.Functions[0] = "TAMPERED"
	again, err := db.ImplByName(kept.Name)
	if err != nil {
		t.Fatal(err)
	}
	if again.Functions[0] != orig.Functions[0] || again.Functions[0] == "TAMPERED" {
		t.Error("mutating a cloned impl corrupted the query cache")
	}
}

// TestScanSeesRegisteredImpl: the streaming path reads the same live
// posting maps RegisterImpl maintains.
func TestScanSeesRegisteredImpl(t *testing.T) {
	db := openTestDB(t)
	im := icdb.Impl{
		Name:      "stream_probe",
		Component: genus.CompCounter,
		Functions: []genus.Function{genus.FuncCOUNTER},
		WidthMin:  1,
		WidthMax:  64,
		Area:      0.001,
		Delay:     0.001,
		Params:    []string{"size"},
		Source: `
NAME: stream_probe;
PARAMETER: size;
INORDER: A[size];
OUTORDER: O[size];
{
  O[0] = A[0];
}
`,
	}
	if err := db.RegisterImpl(im); err != nil {
		t.Fatal(err)
	}
	found := false
	if err := db.Scan(icdb.Spec{Functions: []genus.Function{genus.FuncCOUNTER}}, func(c icdb.Candidate) bool {
		if c.Impl.Name == "stream_probe" {
			found = true
			return false
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Error("freshly registered impl invisible to the streaming path")
	}
}

// TestDBSnapshotRoundTrip: a full ICDB catalog survives the binary
// snapshot path end to end — Open over the reloaded store serves the
// same ranked queries and point lookups.
func TestDBSnapshotRoundTrip(t *testing.T) {
	db := openTestDB(t)
	if err := db.SetToolParam("icdb", "area_weight", 3); err != nil {
		t.Fatal(err)
	}
	want, err := db.Query(icdb.Spec{Functions: []genus.Function{genus.FuncADD}, Where: []icdb.Constraint{icdb.ForWidth(8)}})
	if err != nil || len(want) == 0 {
		t.Fatalf("seed query: %d candidates, %v", len(want), err)
	}

	path := filepath.Join(t.TempDir(), "icdb.snap")
	if err := db.Store().SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	store, err := relstore.LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := icdb.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db2.Query(icdb.Spec{Functions: []genus.Function{genus.FuncADD}, Where: []icdb.Constraint{icdb.ForWidth(8)}})
	if err != nil {
		t.Fatal(err)
	}
	assertSameCandidates(t, got, want)
	if v, ok := db2.ToolParam("icdb", "area_weight"); !ok || v != 3 {
		t.Errorf("tool param after snapshot reload = %v, %v", v, ok)
	}
	// Generic Load sniffs the binary format too.
	store2, err := relstore.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := icdb.Open(store2); err != nil {
		t.Fatal(err)
	}
}
