package icdb

import (
	"path/filepath"
	"strings"
	"testing"

	"icdb/internal/genus"
	"icdb/internal/relstore"
)

func openDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(relstore.New())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOpenBootstrapsSchema(t *testing.T) {
	db := openDB(t)
	want := []string{TableComponents, TableImplementations, TableInstances, TableToolParams}
	got := db.Store().Tables()
	for _, w := range want {
		found := false
		for _, g := range got {
			if g == w {
				found = true
			}
		}
		if !found {
			t.Errorf("table %q missing after Open (have %v)", w, got)
		}
	}
	// Every GENUS component type is seeded into the components relation.
	n, err := db.Store().Count(TableComponents, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(genus.AllComponentTypes()) {
		t.Errorf("components rows = %d, want %d", n, len(genus.AllComponentTypes()))
	}
	fns, err := db.ComponentFunctions(genus.CompCounter)
	if err != nil {
		t.Fatal(err)
	}
	if len(fns) == 0 {
		t.Error("Counter has no functions in components relation")
	}
	// Builtin library is present.
	if _, err := db.ImplByName("cnt_up"); err != nil {
		t.Errorf("builtin cnt_up missing: %v", err)
	}
}

func TestOpenIdempotent(t *testing.T) {
	store := relstore.New()
	if _, err := Open(store); err != nil {
		t.Fatal(err)
	}
	db, err := Open(store)
	if err != nil {
		t.Fatalf("second Open: %v", err)
	}
	impls, err := db.Impls()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for _, im := range impls {
		seen[im.Name]++
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("implementation %q appears %d times after re-Open", name, n)
		}
	}
}

// TestOpenPreservesTunedBuiltin: re-opening a store must not revert a
// builtin implementation the user re-registered with measured numbers.
func TestOpenPreservesTunedBuiltin(t *testing.T) {
	store := relstore.New()
	db, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := db.ImplByName("reg_d")
	if err != nil {
		t.Fatal(err)
	}
	tuned.Area = 42.5
	if err := db.RegisterImpl(tuned); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db2.ImplByName("reg_d")
	if err != nil {
		t.Fatal(err)
	}
	if got.Area != 42.5 {
		t.Errorf("re-Open reverted tuned area: %g", got.Area)
	}
}

func TestRegisterImplValidation(t *testing.T) {
	db := openDB(t)
	good := Impl{
		Name:      "reg_test",
		Component: genus.CompRegister,
		Functions: []genus.Function{genus.FuncSTORAGE},
		WidthMin:  1, WidthMax: 8, Stages: 1,
		Area: 1, Delay: 1,
		Params: []string{"size"},
		Source: "NAME: reg_test; PARAMETER: size; INORDER: d, clk; OUTORDER: q; { q = d @ (~r clk); }",
	}
	if err := db.RegisterImpl(good); err != nil {
		t.Fatalf("good impl rejected: %v", err)
	}

	for _, tc := range []struct {
		name   string
		mutate func(*Impl)
		want   string
	}{
		{"no name", func(im *Impl) { im.Name = "" }, "no name"},
		{"bad component", func(im *Impl) { im.Component = "Widget" }, "unknown component"},
		{"no functions", func(im *Impl) { im.Functions = nil }, "no functions"},
		{"wrong function", func(im *Impl) { im.Functions = []genus.Function{genus.FuncMUL} }, "not executable"},
		{"bad width", func(im *Impl) { im.WidthMax = 0 }, "width range"},
		{"bad source", func(im *Impl) { im.Source = "NAME reg_test" }, "bad IIF source"},
		{"name mismatch", func(im *Impl) {
			im.Source = "NAME: other; PARAMETER: size; INORDER: d; OUTORDER: q; { q = d; }"
		}, "must match"},
		{"params mismatch", func(im *Impl) { im.Params = []string{"size", "stages"} }, "PARAMETER list"},
	} {
		im := good
		tc.mutate(&im)
		err := db.RegisterImpl(im)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestQueryByFunctionRanking(t *testing.T) {
	db := openDB(t)
	// STORAGE: reg_d (cost 7) ranks ahead of cnt_up (cost 14);
	// cnt_ripple executes no STORAGE and must not appear.
	cands, err := db.Query(Spec{Functions: []genus.Function{genus.FuncSTORAGE}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 2 || cands[0].Impl.Name != "reg_d" {
		t.Fatalf("STORAGE query = %+v, want reg_d first", names(cands))
	}
	for _, c := range cands {
		if c.Impl.Name == "cnt_ripple" {
			t.Error("cnt_ripple answered a STORAGE query")
		}
	}
	// Function names normalize case-insensitively.
	if _, err := db.Query(Spec{Functions: []genus.Function{genus.Function("storage")}}); err != nil {
		t.Errorf("lower-case function: %v", err)
	}
	if _, err := db.Query(Spec{Functions: []genus.Function{genus.Function("FROB")}}); err == nil {
		t.Error("unknown function accepted")
	}
}

func TestQueryByFunctionsMerged(t *testing.T) {
	db := openDB(t)
	// COUNTER+STORAGE: only cnt_up merges both (the paper's §4.1 merged
	// component query).
	cands, err := db.Query(Spec{Functions: []genus.Function{genus.FuncCOUNTER, genus.FuncSTORAGE}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].Impl.Name != "cnt_up" {
		t.Fatalf("COUNTER+STORAGE = %v, want [cnt_up]", names(cands))
	}
	if _, err := db.Query(Spec{Functions: []genus.Function{}}); err == nil {
		t.Error("empty query accepted")
	}
}

func TestQueryConstraints(t *testing.T) {
	db := openDB(t)
	// Attribute expression: exclude cnt_up by area.
	c, err := Where("area <= 10")
	if err != nil {
		t.Fatal(err)
	}
	cands, err := db.Query(Spec{Functions: []genus.Function{genus.FuncSTORAGE}, Where: []Constraint{c}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].Impl.Name != "reg_d" {
		t.Fatalf("constrained = %v, want [reg_d]", names(cands))
	}
	// Combined expression with &&, comparison, arithmetic.
	c2 := MustWhere("area + delay < 20 && stages == 1")
	cands, err = db.Query(Spec{Functions: []genus.Function{genus.FuncINC}, Where: []Constraint{c2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 {
		t.Fatalf("INC with cost bound = %v", names(cands))
	}
	// Typed helpers.
	if cs, _ := db.Query(Spec{Type: genus.CompCounter, Where: []Constraint{ForWidth(100)}}); len(cs) != 0 {
		t.Errorf("ForWidth(100) = %v, want none", names(cs))
	}
	if cs, _ := db.Query(Spec{Type: genus.CompCounter, Where: []Constraint{MaxDelay(3)}}); len(cs) != 1 {
		t.Errorf("MaxDelay(3) = %v, want [cnt_up]", names(cs))
	}
	if cs, _ := db.Query(Spec{Type: genus.CompCounter, Where: []Constraint{MaxArea(8)}}); len(cs) != 1 {
		t.Errorf("MaxArea(8) = %v, want [cnt_ripple]", names(cs))
	}
}

func TestWhereErrors(t *testing.T) {
	if _, err := Where("area <="); err == nil {
		t.Error("bad expression accepted")
	}
	c := MustWhere("frobs > 1")
	db := openDB(t)
	if _, err := db.Query(Spec{Functions: []genus.Function{genus.FuncSTORAGE}, Where: []Constraint{c}}); err == nil || !strings.Contains(err.Error(), "unknown attribute") {
		t.Errorf("err = %v, want unknown attribute", err)
	}
	if _, err := db.Query(Spec{Functions: []genus.Function{genus.FuncSTORAGE}, Where: []Constraint{MustWhere("area / 0 > 1")}}); err == nil {
		t.Error("division by zero accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustWhere did not panic")
		}
	}()
	MustWhere("((")
}

func TestQueryByComponent(t *testing.T) {
	db := openDB(t)
	cands, err := db.Query(Spec{Type: genus.CompCounter})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 || cands[0].Impl.Name != "cnt_up" || cands[1].Impl.Name != "cnt_ripple" {
		t.Fatalf("Counter impls = %v, want [cnt_up cnt_ripple]", names(cands))
	}
	if _, err := db.Query(Spec{Type: "Widget"}); err == nil {
		t.Error("unknown component accepted")
	}
}

func TestToolParamsAffectRanking(t *testing.T) {
	db := openDB(t)
	// Default weights: cnt_up (12+2=14) beats cnt_ripple (7+9=16).
	cands, err := db.Query(Spec{Functions: []genus.Function{genus.FuncINC}})
	if err != nil {
		t.Fatal(err)
	}
	if cands[0].Impl.Name != "cnt_up" {
		t.Fatalf("default ranking = %v", names(cands))
	}
	// Area-only optimization flips the order.
	if err := db.SetToolParam("icdb", "area_weight", 1); err != nil {
		t.Fatal(err)
	}
	if err := db.SetToolParam("icdb", "delay_weight", 0); err != nil {
		t.Fatal(err)
	}
	cands, err = db.Query(Spec{Functions: []genus.Function{genus.FuncINC}})
	if err != nil {
		t.Fatal(err)
	}
	if cands[0].Impl.Name != "cnt_ripple" {
		t.Fatalf("area-weighted ranking = %v, want cnt_ripple first", names(cands))
	}
	if v, ok := db.ToolParam("icdb", "delay_weight"); !ok || v != 0 {
		t.Errorf("ToolParam = %v,%v", v, ok)
	}
	if _, ok := db.ToolParam("icdb", "nope"); ok {
		t.Error("unset tool param reported ok")
	}
}

func TestInstantiate(t *testing.T) {
	db := openDB(t)
	i1, reused, err := db.Instantiate("designA", "reg_d", map[string]int{"size": 4})
	if err != nil || reused {
		t.Fatalf("first instantiate: %+v reused=%v err=%v", i1, reused, err)
	}
	i2, reused, err := db.Instantiate("designB", "reg_d", map[string]int{"size": 4})
	if err != nil || !reused {
		t.Fatalf("second instantiate: reused=%v err=%v", reused, err)
	}
	if i2.ID != i1.ID || i2.Uses != 2 {
		t.Errorf("reuse: id %d->%d uses=%d", i1.ID, i2.ID, i2.Uses)
	}
	i3, reused, err := db.Instantiate("designA", "reg_d", map[string]int{"size": 8})
	if err != nil || reused || i3.ID == i1.ID {
		t.Fatalf("distinct bindings: %+v reused=%v err=%v", i3, reused, err)
	}
	// Bindings must match declared parameters.
	if _, _, err := db.Instantiate("d", "reg_d", nil); err == nil {
		t.Error("missing bindings accepted")
	}
	if _, _, err := db.Instantiate("d", "reg_d", map[string]int{"width": 4}); err == nil {
		t.Error("misnamed binding accepted")
	}
	if _, _, err := db.Instantiate("d", "no_such", map[string]int{"size": 4}); err == nil {
		t.Error("unknown implementation accepted")
	}
	insts, err := db.Instances()
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 2 {
		t.Fatalf("instances = %+v", insts)
	}
}

// TestInstantiateIDsAfterDelete: IDs must stay unique even if rows are
// deleted through the raw store.
func TestInstantiateIDsAfterDelete(t *testing.T) {
	db := openDB(t)
	for _, sz := range []int{1, 2, 3} {
		if _, _, err := db.Instantiate("d", "reg_d", map[string]int{"size": sz}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Store().Delete(TableInstances, relstore.Eq("id", 1)); err != nil {
		t.Fatal(err)
	}
	i4, _, err := db.Instantiate("d", "reg_d", map[string]int{"size": 4})
	if err != nil {
		t.Fatal(err)
	}
	if i4.ID != 4 {
		t.Errorf("new ID = %d, want 4 (no reuse of surviving IDs)", i4.ID)
	}
}

func TestBindingsKeyRoundTrip(t *testing.T) {
	b := map[string]int{"size": 4, "stages": 2}
	key := BindingsKey(b)
	if key != "size=4,stages=2" {
		t.Errorf("key = %q", key)
	}
	got, err := ParseBindingsKey(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["size"] != 4 || got["stages"] != 2 {
		t.Errorf("round trip = %v", got)
	}
	if _, err := ParseBindingsKey("oops"); err == nil {
		t.Error("bad key accepted")
	}
	if m, err := ParseBindingsKey(""); err != nil || len(m) != 0 {
		t.Errorf("empty key = %v, %v", m, err)
	}
}

// TestPersistenceRoundTrip saves the whole database and reopens it: the
// paper's ICDB lives in INGRES across sessions; ours must survive
// Save/Load.
func TestPersistenceRoundTrip(t *testing.T) {
	db := openDB(t)
	if _, _, err := db.Instantiate("d", "cnt_up", map[string]int{"size": 4}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "icdb.json")
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
	im, err := db2.ImplByName("cnt_up")
	if err != nil {
		t.Fatal(err)
	}
	if im.Area != 12 || im.WidthMax != 64 || len(im.Functions) != 5 {
		t.Errorf("reloaded impl = %+v", im)
	}
	insts, err := db2.Instances()
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 1 || insts[0].Impl != "cnt_up" || insts[0].Bindings["size"] != 4 {
		t.Errorf("reloaded instances = %+v", insts)
	}
}

func names(cands []Candidate) []string {
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.Impl.Name
	}
	return out
}

// TestOpenLazyTouchesNothing: opening a DB over a lazily opened
// snapshot must not hydrate any relation — Open's seed-skip, the
// per-relation derived caches, and schema-only checks all answer from
// the stubs. Queries then hydrate only the relations they actually
// read: a width-free scan never builds the estimator cache.
func TestOpenLazyTouchesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cat.snap")
	seed := relstore.New()
	if _, err := Open(seed); err != nil {
		t.Fatal(err)
	}
	if err := seed.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	store, err := relstore.OpenSnapshot(path, relstore.SnapshotOptions{Mode: relstore.OpenLazy})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	li := store.LazyInfo()
	if !li.Lazy || li.Hydrated != 0 {
		t.Fatalf("Open hydrated %d/%d tables; a complete catalog must stay cold (%+v)", li.Hydrated, li.Tables, li)
	}

	// A width-free query touches implementations (rows + derived
	// indexes) but must not hydrate the estimators relation.
	cands, err := db.Query(Spec{Functions: []genus.Function{genus.FuncSTORAGE}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no STORAGE candidates from the builtin library")
	}
	if pending(store, TableEstimators) != true {
		t.Error("width-free query hydrated the estimators relation")
	}
	if pending(store, TableImplementations) {
		t.Error("query did not hydrate the implementations relation")
	}

	// A width-point query needs the estimator cache — now it hydrates.
	if _, err := db.Query(Spec{Functions: []genus.Function{genus.FuncSTORAGE}, Where: []Constraint{AtWidth(8)}}); err != nil {
		t.Fatal(err)
	}
	if pending(store, TableEstimators) {
		t.Error("width query did not hydrate the estimators relation")
	}
}

// pending reports whether a lazily opened relation is still a cold stub.
func pending(s *relstore.Store, table string) bool {
	for _, n := range s.LazyInfo().PendingTables {
		if n == table {
			return true
		}
	}
	return false
}
