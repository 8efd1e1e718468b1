package icdb

import (
	"fmt"
	"testing"

	"icdb/internal/genus"
	"icdb/internal/relstore"
)

// regCounter registers a synthetic counter implementation with the given
// function subset and cost.
func regCounter(t *testing.T, db *DB, name string, fns []genus.Function, area, delay float64) {
	t.Helper()
	src := fmt.Sprintf("NAME: %s; PARAMETER: size; INORDER: d, clk; OUTORDER: q; { q = d @ (~r clk); }", name)
	if err := db.RegisterImpl(Impl{
		Name:      name,
		Component: genus.CompCounter,
		Style:     "test",
		Functions: fns,
		WidthMin:  1, WidthMax: 32, Stages: 1,
		Area: area, Delay: delay,
		Params: []string{"size"},
		Source: src,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestInvertedIndexFollowsReRegistration: re-registering an
// implementation with a different function set must move it between
// posting lists — the old postings may not serve it any more.
func TestInvertedIndexFollowsReRegistration(t *testing.T) {
	db := openDB(t)
	regCounter(t, db, "updown", []genus.Function{genus.FuncINC, genus.FuncDEC}, 5, 5)
	cands, err := db.Query(Spec{Functions: []genus.Function{genus.FuncDEC}})
	if err != nil || len(cands) != 1 || cands[0].Impl.Name != "updown" {
		t.Fatalf("DEC query = %v (%v), want [updown]", names(cands), err)
	}
	// Drop DEC from the function set.
	regCounter(t, db, "updown", []genus.Function{genus.FuncINC}, 5, 5)
	cands, err = db.Query(Spec{Functions: []genus.Function{genus.FuncDEC}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Impl.Name == "updown" {
			t.Error("updown still answers DEC after re-registration dropped it")
		}
	}
	// It still answers INC, once, with no duplicate postings.
	n := 0
	cands, _ = db.Query(Spec{Functions: []genus.Function{genus.FuncINC}})
	for _, c := range cands {
		if c.Impl.Name == "updown" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("updown appears %d times in INC postings, want 1", n)
	}
}

// TestInvalidateCachesSeesDirectStoreWrites: a row written behind the
// DB's back is invisible to function queries until InvalidateCaches.
func TestInvalidateCachesSeesDirectStoreWrites(t *testing.T) {
	db := openDB(t)
	// Warm the indexes.
	if _, err := db.Query(Spec{Functions: []genus.Function{genus.FuncADD}}); err != nil {
		t.Fatal(err)
	}
	rogue := Impl{
		Name:      "rogue_add",
		Component: genus.CompAdderSubtractor,
		Functions: []genus.Function{genus.FuncADD},
		WidthMin:  1, WidthMax: 8, Stages: 0,
		Area: 0.5, Delay: 0.5,
		Params: []string{"size"},
		Source: "NAME: rogue_add; PARAMETER: size; INORDER: a; OUTORDER: s; { s = a; }",
	}
	if err := db.Store().Upsert(TableImplementations, implRow(rogue)); err != nil {
		t.Fatal(err)
	}
	cands, err := db.Query(Spec{Functions: []genus.Function{genus.FuncADD}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Impl.Name == "rogue_add" {
			t.Fatal("stale index already serves the direct write (test premise broken)")
		}
	}
	db.InvalidateCaches()
	cands, err = db.Query(Spec{Functions: []genus.Function{genus.FuncADD}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range cands {
		found = found || c.Impl.Name == "rogue_add"
	}
	if !found {
		t.Error("rogue_add invisible after InvalidateCaches")
	}
}

// TestQueryTopK: the heap-bounded query returns exactly the k-cheapest
// prefix of the unbounded result, in the same order.
func TestQueryTopK(t *testing.T) {
	db := openDB(t)
	for i := 0; i < 20; i++ {
		regCounter(t, db, fmt.Sprintf("tk_%02d", i),
			[]genus.Function{genus.FuncINC, genus.FuncCOUNTER},
			float64((i*7)%13), float64((i*3)%11))
	}
	full, err := db.Query(Spec{Functions: []genus.Function{genus.FuncINC}})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 7, len(full), len(full) + 5} {
		top, err := db.Query(Spec{Functions: []genus.Function{genus.FuncINC}, Limit: k})
		if err != nil {
			t.Fatal(err)
		}
		want := k
		if want > len(full) {
			want = len(full)
		}
		if len(top) != want {
			t.Fatalf("TopK(%d) returned %d candidates, want %d", k, len(top), want)
		}
		for i := range top {
			if top[i].Impl.Name != full[i].Impl.Name || top[i].Cost != full[i].Cost {
				t.Fatalf("TopK(%d)[%d] = %s/%g, full[%d] = %s/%g",
					k, i, top[i].Impl.Name, top[i].Cost, i, full[i].Impl.Name, full[i].Cost)
			}
		}
	}
	// k <= 0 is unbounded.
	all, err := db.Query(Spec{Functions: []genus.Function{genus.FuncINC}, Limit: 0})
	if err != nil || len(all) != len(full) {
		t.Errorf("TopK(0) = %d candidates (%v), want %d", len(all), err, len(full))
	}
	// Constraints apply before the heap.
	top, err := db.Query(Spec{Functions: []genus.Function{genus.FuncINC}, Where: []Constraint{MustWhere("area >= 5")}, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range top {
		if c.Impl.Area < 5 {
			t.Errorf("TopK ignored constraint: %s area %g", c.Impl.Name, c.Impl.Area)
		}
	}
	// Component-scoped TopK agrees with the unbounded component query.
	fullC, err := db.Query(Spec{Type: genus.CompCounter})
	if err != nil {
		t.Fatal(err)
	}
	topC, err := db.Query(Spec{Type: genus.CompCounter, Limit: 2})
	if err != nil || len(topC) != 2 {
		t.Fatalf("component TopK = %v (%v)", names(topC), err)
	}
	for i := range topC {
		if topC[i].Impl.Name != fullC[i].Impl.Name {
			t.Errorf("component TopK[%d] = %s, want %s", i, topC[i].Impl.Name, fullC[i].Impl.Name)
		}
	}
}

// TestZeroConstraintAcceptsEverything: the zero Constraint{} must be
// inert in a query, not a nil-function panic.
func TestZeroConstraintAcceptsEverything(t *testing.T) {
	db := openDB(t)
	plain, err := db.Query(Spec{Functions: []genus.Function{genus.FuncSTORAGE}})
	if err != nil {
		t.Fatal(err)
	}
	withZero, err := db.Query(Spec{Functions: []genus.Function{genus.FuncSTORAGE}, Where: []Constraint{{}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(withZero) != len(plain) {
		t.Errorf("zero constraint filtered: %d vs %d candidates", len(withZero), len(plain))
	}
}

// TestQueryResultsAreCallerOwned: mutating a returned candidate's slices
// must not corrupt the shared decoded cache.
func TestQueryResultsAreCallerOwned(t *testing.T) {
	db := openDB(t)
	cands, err := db.Query(Spec{Functions: []genus.Function{genus.FuncSTORAGE}})
	if err != nil || len(cands) == 0 {
		t.Fatal(err)
	}
	cands[0].Impl.Functions[0] = genus.Function("CLOBBERED")
	again, err := db.Query(Spec{Functions: []genus.Function{genus.FuncSTORAGE}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range again {
		for _, f := range c.Impl.Functions {
			if f == "CLOBBERED" {
				t.Fatal("candidate mutation leaked into the implementation cache")
			}
		}
	}
	im, err := db.ImplByName(cands[0].Impl.Name)
	if err != nil {
		t.Fatal(err)
	}
	im.Params[0] = "clobbered"
	im2, err := db.ImplByName(cands[0].Impl.Name)
	if err != nil || im2.Params[0] == "clobbered" {
		t.Errorf("ImplByName shares cache slices (params = %v, err %v)", im2.Params, err)
	}
}

// TestImplByNameIsPointLookup: the implementations table must carry a
// primary key serving ImplByName without a scan (asserted structurally:
// Get succeeds, and a huge catalog answers immediately is covered by the
// benchmarks).
func TestImplByNameIsPointLookup(t *testing.T) {
	db := openDB(t)
	if _, err := db.Store().Get(TableImplementations, "reg_d"); err != nil {
		t.Fatalf("implementations Get fast path unavailable: %v", err)
	}
	im, err := db.ImplByName("reg_d")
	if err != nil || im.Name != "reg_d" {
		t.Fatalf("ImplByName = %+v, %v", im, err)
	}
}

// TestOpenAfterLoadServesIndexedQueries mirrors the persistence test but
// asserts the lazily built indexes work over a loaded store.
func TestOpenAfterLoadServesIndexedQueries(t *testing.T) {
	db := openDB(t)
	regCounter(t, db, "persisted_cnt", []genus.Function{genus.FuncINC}, 1, 1)
	path := t.TempDir() + "/icdb.json"
	if err := db.Store().Save(path); err != nil {
		t.Fatal(err)
	}
	store, err := relstore.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := db2.Query(Spec{Functions: []genus.Function{genus.FuncINC}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range cands {
		found = found || c.Impl.Name == "persisted_cnt"
	}
	if !found {
		t.Errorf("persisted_cnt missing from reloaded query: %v", names(cands))
	}
}
