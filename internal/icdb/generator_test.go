package icdb

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"icdb/internal/genus"
	"icdb/internal/relstore"
)

// regScaled registers a minimal ADD implementation with the given scalar
// estimates and optional estimator expressions.
func regScaled(t *testing.T, db *DB, name string, area, delay float64, areaExpr, delayExpr string) {
	t.Helper()
	src := "NAME: " + name + "; PARAMETER: size; INORDER: a, b; OUTORDER: s; { s = a (+) b; }"
	err := db.RegisterImpl(Impl{
		Name:      name,
		Component: genus.CompAdderSubtractor,
		Style:     "test",
		Functions: []genus.Function{genus.FuncADD},
		WidthMin:  1, WidthMax: 64,
		Area: area, Delay: delay,
		Params: []string{"size"},
		Source: src,
	})
	if err != nil {
		t.Fatal(err)
	}
	if areaExpr != "" {
		if err := db.RegisterEstimator(name, "area", areaExpr); err != nil {
			t.Fatal(err)
		}
	}
	if delayExpr != "" {
		if err := db.RegisterEstimator(name, "delay", delayExpr); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAtWidthEvaluatesEstimators: with a width evaluation point, the
// engine filters, ranks, and reports estimator-evaluated values — and a
// width-scaling implementation that wins on per-bit cost loses to a
// flat one once the width grows.
func TestAtWidthEvaluatesEstimators(t *testing.T) {
	db := openTestDB(t)
	// flat: constant estimator, 20 at any width. scaled: 2 per bit.
	regScaled(t, db, "flat_add", 20, 0, "area", "delay")
	regScaled(t, db, "scaled_add", 2, 0, "area * width", "delay")

	for _, c := range []struct {
		width int
		first string
		area  float64
	}{
		{4, "scaled_add", 8}, // 2*4 = 8 beats 20
		{16, "flat_add", 20}, // 2*16 = 32 loses to 20
		{10, "flat_add", 20}, // tie at 2*10=20 broken by name
	} {
		cands, err := db.Query(Spec{Functions: []genus.Function{genus.FuncADD}, Where: []Constraint{AtWidth(c.width)}, Order: Order{Attr: "area"}})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, cand := range cands {
			got = append(got, cand.Impl.Name)
		}
		if len(got) < 2 || got[0] != c.first {
			t.Errorf("at width %d: order = %v, want %s first", c.width, got, c.first)
			continue
		}
		if cands[0].Area != c.area {
			t.Errorf("at width %d: Area = %g, want %g", c.width, cands[0].Area, c.area)
		}
	}
}

// TestAtWidthFiltersCoverage: AtWidth keeps only implementations whose
// width range covers the point, like ForWidth.
func TestAtWidthFiltersCoverage(t *testing.T) {
	db := openTestDB(t)
	cands, err := db.Query(Spec{Where: []Constraint{AtWidth(65)}}) // builtins stop at 64
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Errorf("at width 65 kept %d candidates", len(cands))
	}
}

// TestAtWidthConstraintsSeeEvaluatedValues: a "with area <= n" filter at
// a width point compares the estimator value, and Where expressions may
// reference the width attribute.
func TestAtWidthConstraintsSeeEvaluatedValues(t *testing.T) {
	db := openTestDB(t)
	regScaled(t, db, "scaled_add", 2, 1, "area * width", "delay")
	le, err := AttrCmp("area", CmpLE, 10)
	if err != nil {
		t.Fatal(err)
	}
	has := func(cands []Candidate, name string) bool {
		for _, c := range cands {
			if c.Impl.Name == name {
				return true
			}
		}
		return false
	}
	// At width 4 the evaluated area is 8 <= 10; at width 8 it is 16.
	in4, err := db.Query(Spec{Functions: []genus.Function{genus.FuncADD}, Where: []Constraint{AtWidth(4), le}})
	if err != nil {
		t.Fatal(err)
	}
	in8, err := db.Query(Spec{Functions: []genus.Function{genus.FuncADD}, Where: []Constraint{AtWidth(8), le}})
	if err != nil {
		t.Fatal(err)
	}
	if !has(in4, "scaled_add") || has(in8, "scaled_add") {
		t.Errorf("area<=10 filter: width4 has=%v width8 has=%v, want true/false",
			has(in4, "scaled_add"), has(in8, "scaled_add"))
	}
	wq, err := Where("width >= 6")
	if err != nil {
		t.Fatal(err)
	}
	byW, err := db.Query(Spec{Functions: []genus.Function{genus.FuncADD}, Where: []Constraint{AtWidth(8), wq}})
	if err != nil {
		t.Fatal(err)
	}
	if len(byW) == 0 {
		t.Error("width attribute not visible to Where at an evaluation point")
	}
}

// TestAtWidthTopKMatchesUnbounded: the bounded heap and the unbounded
// sort agree under width-aware ranking.
func TestAtWidthTopKMatchesUnbounded(t *testing.T) {
	db := openTestDB(t)
	regScaled(t, db, "flat_add", 20, 3, "area", "delay")
	regScaled(t, db, "scaled_add", 2, 1, "area * width", "delay * width")
	all, err := db.Query(Spec{Functions: []genus.Function{genus.FuncADD}, Where: []Constraint{AtWidth(16)}, Order: Order{Attr: "delay"}})
	if err != nil {
		t.Fatal(err)
	}
	top, err := db.Query(Spec{Functions: []genus.Function{genus.FuncADD}, Where: []Constraint{AtWidth(16)}, Order: Order{Attr: "delay"}, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 2 || len(top) != 2 {
		t.Fatalf("result sizes: all=%d top=%d", len(all), len(top))
	}
	if !reflect.DeepEqual(all[:2], top) {
		t.Errorf("top-2 = %+v, want unbounded truncation %+v", top, all[:2])
	}
}

// TestAtWidthRejectsConflictsAndInvalid: invalid or conflicting width
// points fail eagerly on ranked and streaming paths.
func TestAtWidthRejectsConflictsAndInvalid(t *testing.T) {
	db := openTestDB(t)
	if _, err := db.Query(Spec{Where: []Constraint{AtWidth(0)}}); err == nil ||
		!strings.Contains(err.Error(), "at least 1") {
		t.Errorf("AtWidth(0): %v", err)
	}
	if _, err := db.Query(Spec{Where: []Constraint{AtWidth(4), AtWidth(8)}}); err == nil ||
		!strings.Contains(err.Error(), "conflicting") {
		t.Errorf("conflicting widths: %v", err)
	}
	if err := db.Scan(Spec{Where: []Constraint{AtWidth(-3)}}, func(Candidate) bool { return true }); err == nil {
		t.Error("streaming path accepted an invalid width point")
	}
}

// TestConstantEstimatorsMatchScalarEngine is the equivalence pin: a
// catalog whose estimators are the constant expressions "area"/"delay"
// must produce candidate-for-candidate identical query, ordering, and
// TopK results at any width point as the scalar engine filtered to the
// same coverage.
func TestConstantEstimatorsMatchScalarEngine(t *testing.T) {
	scalar, err := Open(relstore.New())
	if err != nil {
		t.Fatal(err)
	}
	est, err := Open(relstore.New())
	if err != nil {
		t.Fatal(err)
	}
	impls, err := est.Impls()
	if err != nil {
		t.Fatal(err)
	}
	for _, im := range impls {
		// Overwrite the builtin width-scaling estimators with the
		// degenerate constant case.
		if err := est.RegisterEstimator(im.Name, "area", "area"); err != nil {
			t.Fatal(err)
		}
		if err := est.RegisterEstimator(im.Name, "delay", "delay"); err != nil {
			t.Fatal(err)
		}
	}
	for _, order := range []Order{{}, {Attr: "area"}, {Attr: "delay", Desc: true}, {Attr: "cost"}} {
		for _, k := range []int{0, 3} {
			want, err := scalar.Query(Spec{Where: []Constraint{ForWidth(8)}, Order: order, Limit: k})
			if err != nil {
				t.Fatal(err)
			}
			got, err := est.Query(Spec{Where: []Constraint{AtWidth(8)}, Order: order, Limit: k})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("order %+v k=%d: constant-estimator engine diverged\n got %+v\nwant %+v",
					order, k, got, want)
			}
		}
	}
}

// TestEstimateImpl covers the point-estimate API: estimator evaluation,
// the scalar fallback, and range errors.
func TestEstimateImpl(t *testing.T) {
	db := openTestDB(t)
	// cnt_ripple carries the builtin linear estimators (area*width,
	// delay*width); its scalars are 7 and 9.
	area, delay, cost, err := db.EstimateImpl("cnt_ripple", 8)
	if err != nil {
		t.Fatal(err)
	}
	if area != 56 || delay != 72 || cost != 128 {
		t.Errorf("cnt_ripple at 8 = (%g, %g, %g), want (56, 72, 128)", area, delay, cost)
	}
	// An implementation with no estimators falls back to its scalars.
	regScaled(t, db, "plain_add", 5, 4, "", "")
	area, delay, _, err = db.EstimateImpl("plain_add", 32)
	if err != nil {
		t.Fatal(err)
	}
	if area != 5 || delay != 4 {
		t.Errorf("scalar fallback = (%g, %g), want (5, 4)", area, delay)
	}
	if _, _, _, err := db.EstimateImpl("cnt_ripple", 65); err == nil ||
		!strings.Contains(err.Error(), "width range") {
		t.Errorf("out-of-range estimate: %v", err)
	}
	if _, _, _, err := db.EstimateImpl("no_such", 8); err == nil {
		t.Error("unknown implementation accepted")
	}
}

// TestRegisterGeneratorValidation: every declared invariant is enforced.
func TestRegisterGeneratorValidation(t *testing.T) {
	db := openTestDB(t)
	ok := builtinGenerators()[0]
	cases := []struct {
		name   string
		mutate func(*Generator)
		want   string
	}{
		{"no name", func(g *Generator) { g.Name = "" }, "no name"},
		{"bad component", func(g *Generator) { g.Component = "Blob" }, "unknown component type"},
		{"no functions", func(g *Generator) { g.Functions = nil }, "executes no functions"},
		{"foreign function", func(g *Generator) { g.Functions = []genus.Function{genus.FuncMUL} }, "not executable"},
		{"bad width range", func(g *Generator) { g.WidthMin = 9; g.WidthMax = 3 }, "bad width range"},
		{"no size param", func(g *Generator) {
			g.Params = []string{"n"}
			g.Source = strings.Replace(g.Source, "PARAMETER: size;", "PARAMETER: n;", 1)
		}, `lacks the "size" width parameter`},
		{"empty estimator", func(g *Generator) { g.AreaExpr = " " }, "empty area estimator"},
		{"bad estimator", func(g *Generator) { g.DelayExpr = "width +" }, "bad delay estimator"},
		{"name mismatch", func(g *Generator) { g.Name = "other" }, "must match"},
		{"param mismatch", func(g *Generator) { g.Params = []string{"size", "extra"} }, "does not match"},
	}
	for _, c := range cases {
		g := ok.Clone()
		c.mutate(&g)
		err := db.RegisterGenerator(g)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

// TestGenerateRegistersQueryableImpl: the acceptance path — a generated
// implementation is immediately visible to queries and the expander,
// carries the generator's estimators, and re-generation reuses it.
func TestGenerateRegistersQueryableImpl(t *testing.T) {
	db := openTestDB(t)
	im, reused, err := db.Generate("gen_sub", map[string]int{"size": 8})
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Error("first generation reported reused")
	}
	if im.Name != "gen_sub_size_8" || im.WidthMin != 8 || im.WidthMax != 8 {
		t.Errorf("generated impl = %+v", im)
	}
	if im.Area != 80 || im.Delay != 14 { // 10*8, 6+8
		t.Errorf("generated estimates = (%g, %g), want (80, 14)", im.Area, im.Delay)
	}
	// Queryable by function, and ranked width-aware.
	cands, err := db.Query(Spec{Functions: []genus.Function{genus.FuncSUB}, Where: []Constraint{AtWidth(8)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].Impl.Name != "gen_sub_size_8" {
		t.Errorf("query-by-SUB = %+v", cands)
	}
	// Estimators attached.
	ests, err := db.Estimators("gen_sub_size_8")
	if err != nil || ests["area"] != "10 * width" || ests["delay"] != "6 + width" {
		t.Errorf("attached estimators = %v (%v)", ests, err)
	}
	// Re-generation at the same point reuses the registered row.
	again, reused, err := db.Generate("gen_sub", map[string]int{"size": 8})
	if err != nil || !reused || again.Name != im.Name {
		t.Errorf("re-generate = %+v reused=%v err=%v", again, reused, err)
	}
	// Out-of-range and mis-bound points fail.
	if _, _, err := db.Generate("gen_sub", map[string]int{"size": 999}); err == nil ||
		!strings.Contains(err.Error(), "width range") {
		t.Errorf("out-of-range generate: %v", err)
	}
	if _, _, err := db.Generate("gen_sub", map[string]int{"n": 8}); err == nil {
		t.Error("mis-bound generate accepted")
	}
	if _, _, err := db.Generate("nope", map[string]int{"size": 8}); err == nil {
		t.Error("unknown generator accepted")
	}
}

// TestGenerateBindsParamsIntoEstimators: a generator estimator over a
// parameter other than the width ("k * width" with params size,k) is
// attached to the generated implementation with the point's bindings
// substituted, so at-width finds over the function — including finds
// at widths the implementation does not cover — evaluate instead of
// failing with "unknown attribute". The materializing Explore path
// attaches the same bound estimators.
func TestGenerateBindsParamsIntoEstimators(t *testing.T) {
	db := openTestDB(t)
	if err := db.RegisterGenerator(Generator{
		Name:      "gen_k",
		Component: genus.CompAdderSubtractor,
		Style:     "test",
		Functions: []genus.Function{genus.FuncADD},
		WidthMin:  1, WidthMax: 64,
		Params:    []string{"size", "k"},
		AreaExpr:  "k * width",
		DelayExpr: "size + 1",
		Source:    "NAME: gen_k; PARAMETER: size, k; INORDER: a, b; OUTORDER: s; { s = a (+) b; }",
	}); err != nil {
		t.Fatal(err)
	}
	im, _, err := db.Generate("gen_k", map[string]int{"size": 8, "k": 3})
	if err != nil {
		t.Fatal(err)
	}
	if im.Area != 24 || im.Delay != 9 {
		t.Errorf("generated estimates = (%g, %g), want (24, 9)", im.Area, im.Delay)
	}
	if ests, _ := db.Estimators(im.Name); ests["area"] != "(3*width)" || ests["delay"] != "(8+1)" {
		t.Errorf("attached estimators = %v, want bound (3*width), (8+1)", ests)
	}
	found := func(width int, name string) (Candidate, bool) {
		t.Helper()
		cands, err := db.Query(Spec{Functions: []genus.Function{genus.FuncADD}, Where: []Constraint{AtWidth(width)}})
		if err != nil {
			t.Fatalf("find ADD at width %d: %v", width, err)
		}
		for _, c := range cands {
			if c.Impl.Name == name {
				return c, true
			}
		}
		return Candidate{}, false
	}
	if c, ok := found(8, im.Name); !ok || c.Area != 24 || c.Delay != 9 {
		t.Errorf("find at 8: %s = %+v (found %v), want area 24 delay 9", im.Name, c, ok)
	}
	if _, ok := found(16, im.Name); ok {
		t.Errorf("find at 16 returned %s, which only covers width 8", im.Name)
	}
	if area, delay, _, err := db.EstimateImpl(im.Name, 8); err != nil || area != 24 || delay != 9 {
		t.Errorf("estimate %s at 8 = (%g, %g, %v), want (24, 9)", im.Name, area, delay, err)
	}
	pts, err := db.Explore("gen_k", 4, 4, 1, map[string]int{"k": 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := found(4, pts[0].Impl); !ok || c.Area != 8 || c.Delay != 5 {
		t.Errorf("find at 4: %s = %+v (found %v), want area 8 delay 5", pts[0].Impl, c, ok)
	}
}

// TestGeneratorPersistenceRoundTrip: generators, estimators, and
// generated implementations survive both persistence formats, and the
// reopened database keeps answering width-aware queries identically.
func TestGeneratorPersistenceRoundTrip(t *testing.T) {
	db := openTestDB(t)
	if _, _, err := db.Generate("gen_cnt", map[string]int{"size": 24}); err != nil {
		t.Fatal(err)
	}
	want, err := db.Query(Spec{Functions: []genus.Function{genus.FuncCOUNTER}, Where: []Constraint{AtWidth(24)}, Order: Order{Attr: "area"}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "db.json")
	snapPath := filepath.Join(dir, "db.snap")
	if err := db.Store().Save(jsonPath); err != nil {
		t.Fatal(err)
	}
	if err := db.Store().SaveSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{jsonPath, snapPath} {
		st, err := relstore.Load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		re, err := Open(st)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		g, err := re.GeneratorByName("gen_cnt")
		if err != nil || g.AreaExpr != "12 * width" {
			t.Fatalf("%s: generator lost: %+v (%v)", path, g, err)
		}
		got, err := re.Query(Spec{Functions: []genus.Function{genus.FuncCOUNTER}, Where: []Constraint{AtWidth(24)}, Order: Order{Attr: "area"}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: width-aware query diverged after reload\n got %+v\nwant %+v", path, got, want)
		}
	}
}

// TestGeneratorsByComponentUsesIndex: the component-keyed listing
// returns exactly that type's generators (served from the secondary
// index) and survives re-registration.
func TestGeneratorsByComponentUsesIndex(t *testing.T) {
	db := openTestDB(t)
	gens, err := db.GeneratorsByComponent(genus.CompCounter)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 || gens[0].Name != "gen_cnt" {
		t.Errorf("Counter generators = %+v", gens)
	}
	if _, err := db.GeneratorsByComponent("Blob"); err == nil {
		t.Error("unknown component type accepted")
	}
	all, err := db.Generators()
	if err != nil || len(all) != 2 {
		t.Errorf("Generators() = %d entries (%v)", len(all), err)
	}
}

// TestOpenCreatesNewRelationsOnOldStores: a store persisted before the
// generator/estimator relations existed (simulated by dropping them)
// reopens cleanly, with the new tables bootstrapped and re-seeded.
func TestOpenCreatesNewRelationsOnOldStores(t *testing.T) {
	db := openTestDB(t)
	for _, table := range []string{TableGenerators, TableEstimators} {
		if err := db.Store().DropTable(table); err != nil {
			t.Fatal(err)
		}
	}
	db.InvalidateCaches()
	re, err := Open(db.Store())
	if err != nil {
		t.Fatalf("reopen without new relations: %v", err)
	}
	if _, err := re.GeneratorByName("gen_cnt"); err != nil {
		t.Errorf("generators not re-seeded: %v", err)
	}
}

// TestGeneratedImplNameIsInjective: distinct binding points must never
// collide onto one implementation name (a bare name+value concatenation
// would map {a:12, a1:3} and {a:13, a1:2} to the same string).
func TestGeneratedImplNameIsInjective(t *testing.T) {
	a := GeneratedImplName("g", map[string]int{"a": 12, "a1": 3})
	b := GeneratedImplName("g", map[string]int{"a": 13, "a1": 2})
	if a == b {
		t.Fatalf("colliding generated names: %q", a)
	}
	if got := GeneratedImplName("gen_cnt", map[string]int{"size": 16}); got != "gen_cnt_size_16" {
		t.Errorf("GeneratedImplName = %q, want gen_cnt_size_16", got)
	}
}
