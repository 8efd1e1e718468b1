package cql

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"icdb/internal/genus"
	"icdb/internal/icdb"
	"icdb/internal/relstore"
)

func openTestDB(t *testing.T) *icdb.DB {
	t.Helper()
	db, err := icdb.Open(relstore.New())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

// run parses, compiles, and materializes one find command.
func run(t *testing.T, db *icdb.DB, src string) []icdb.Candidate {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	q, err := CompileFind(db, stmt.(*FindStmt))
	if err != nil {
		t.Fatalf("CompileFind(%q): %v", src, err)
	}
	var cands []icdb.Candidate
	if err := q.Run(func(c icdb.Candidate) bool {
		c.Impl = c.Impl.Clone() // a streamed Impl must not be retained as-is
		cands = append(cands, c)
		return true
	}); err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	return cands
}

func names(cands []icdb.Candidate) []string {
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.Impl.Name
	}
	return out
}

// TestFindEquivalentToTopK is the acceptance criterion: the CQL command
// of ISSUE 4 returns the same candidates, in the same order, as the
// equivalent db.Query specs.
func TestFindEquivalentToTopK(t *testing.T) {
	db := openTestDB(t)
	areaLE10, err := icdb.AttrCmp("area", icdb.CmpLE, 10)
	if err != nil {
		t.Fatal(err)
	}

	// Cost-ranked: "limit 5" with no order-by is the engine's default
	// ranking, i.e. exactly a cost-ranked Query with Limit 5.
	got := run(t, db, "find component executing STORAGE with area <= 10 limit 5")
	want, err := db.Query(icdb.Spec{Functions: []genus.Function{genus.FuncSTORAGE}, Where: []icdb.Constraint{icdb.MustWhere("area <= 10")}, Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	assertSameCandidates(t, "cost-ranked", got, want)

	// Attribute-ranked: "order by delay" is a Query with the delay Order
	// key.
	got = run(t, db, "find component executing STORAGE with area <= 10 order by delay limit 5")
	want, err = db.Query(icdb.Spec{Functions: []genus.Function{genus.FuncSTORAGE}, Where: []icdb.Constraint{areaLE10}, Order: icdb.Order{Attr: "delay"}, Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	assertSameCandidates(t, "delay-ranked", got, want)
	if len(got) == 0 {
		t.Fatal("acceptance query returned no candidates")
	}
}

func assertSameCandidates(t *testing.T, label string, got, want []icdb.Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %v, want %v", label, names(got), names(want))
	}
	for i := range got {
		if got[i].Impl.Name != want[i].Impl.Name || got[i].Cost != want[i].Cost {
			t.Errorf("%s: [%d] = %s/%g, want %s/%g", label, i,
				got[i].Impl.Name, got[i].Cost, want[i].Impl.Name, want[i].Cost)
		}
	}
}

// TestFindStreamedMatchesRanked checks the streaming (unordered) path
// yields the same candidate set as the ranked path.
func TestFindStreamedMatchesRanked(t *testing.T) {
	db := openTestDB(t)
	streamed := names(run(t, db, "find component executing STORAGE with area <= 10"))
	ranked := names(run(t, db, "find component executing STORAGE with area <= 10 order by cost"))
	sort.Strings(streamed)
	sorted := append([]string(nil), ranked...)
	sort.Strings(sorted)
	if !equalStrings(streamed, sorted) {
		t.Errorf("streamed = %v, ranked = %v", streamed, ranked)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFindOfTypePlusExecuting checks the combined type+function filter
// on both engine paths: reg_d executes STORAGE but is not a Counter.
func TestFindOfTypePlusExecuting(t *testing.T) {
	db := openTestDB(t)
	ranked := names(run(t, db, "find component of type Counter executing STORAGE order by cost"))
	if !equalStrings(ranked, []string{"cnt_up"}) {
		t.Errorf("ranked = %v, want [cnt_up]", ranked)
	}
	streamed := names(run(t, db, "find component of type Counter executing STORAGE"))
	if !equalStrings(streamed, []string{"cnt_up"}) {
		t.Errorf("streamed = %v, want [cnt_up]", streamed)
	}
}

// TestFindOfTypeOrdered checks ordering within one component type.
func TestFindOfTypeOrdered(t *testing.T) {
	db := openTestDB(t)
	got := names(run(t, db, "find impls of type Counter order by area"))
	if !equalStrings(got, []string{"cnt_ripple", "cnt_up"}) {
		t.Errorf("by area = %v, want [cnt_ripple cnt_up]", got)
	}
	got = names(run(t, db, "find impls of type Counter order by area desc"))
	if !equalStrings(got, []string{"cnt_up", "cnt_ripple"}) {
		t.Errorf("by area desc = %v, want [cnt_up cnt_ripple]", got)
	}
}

// TestWidthSugar checks the width pseudo-attribute's lowering.
func TestWidthSugar(t *testing.T) {
	db := openTestDB(t)
	// Every builtin covers 1..64, so width = 8 keeps all of them and
	// width > 64 keeps none.
	all := run(t, db, "find component order by cost")
	cov := run(t, db, "find component with width = 8 order by cost")
	if len(cov) != len(all) {
		t.Errorf("width = 8 kept %d of %d", len(cov), len(all))
	}
	if none := run(t, db, "find component with width > 64 order by cost"); len(none) != 0 {
		t.Errorf("width > 64 kept %v", names(none))
	}
	if none := run(t, db, "find component with width < 1 order by cost"); len(none) != 0 {
		t.Errorf("width < 1 kept %v", names(none))
	}

	// Compile-time width errors, positioned.
	for _, c := range []struct{ src, want string }{
		{"find component with width != 3", "cql: 'width != n' is not expressible over a width range; constrain width_min or width_max directly at col 27"},
		{"find component with width = 2.5", "cql: width must be a whole number of bits, got 2.5 at col 29"},
	} {
		stmt, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		_, err = CompileFind(db, stmt.(*FindStmt))
		if err == nil || err.Error() != c.want {
			t.Errorf("CompileFind(%q) = %v, want %q", c.src, err, c.want)
		}
	}
}

// TestCompileVocabularyErrors checks unknown functions and component
// types are positioned and get suggestions.
func TestCompileVocabularyErrors(t *testing.T) {
	db := openTestDB(t)
	cases := []struct{ src, want string }{
		{"find component executing STORAG", `cql: unknown function 'STORAG' at col 26 (did you mean "STORAGE"?)`},
		{"find component of type Counterr", `cql: unknown component type 'Counterr' at col 24 (did you mean "Counter"?)`},
	}
	for _, c := range cases {
		stmt, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		_, err = CompileFind(db, stmt.(*FindStmt))
		if err == nil || err.Error() != c.want {
			t.Errorf("CompileFind(%q) = %v, want %q", c.src, err, c.want)
		}
	}
}

func execOut(t *testing.T, env *Env, src string) string {
	t.Helper()
	var sb strings.Builder
	env.Out = &sb
	if err := env.Exec(src); err != nil {
		t.Fatalf("Exec(%q): %v", src, err)
	}
	return sb.String()
}

// TestExecFind checks the printed row format and ranked numbering.
func TestExecFind(t *testing.T) {
	env := &Env{DB: openTestDB(t)}
	out := execOut(t, env, "find component executing STORAGE order by cost")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("output = %q", out)
	}
	if !strings.HasPrefix(lines[0], "1. reg_d") || !strings.Contains(lines[0], "cost 7") {
		t.Errorf("line 1 = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "2. cnt_up") || !strings.Contains(lines[1], "cost 14") {
		t.Errorf("line 2 = %q", lines[1])
	}
	out = execOut(t, env, "find component with area > 1000")
	if !strings.Contains(out, "no matching implementations") {
		t.Errorf("empty result output = %q", out)
	}
}

// TestExecShow checks the three listings are present and deterministic.
func TestExecShow(t *testing.T) {
	env := &Env{DB: openTestDB(t)}
	impls := execOut(t, env, "show impls")
	if !strings.Contains(impls, "reg_d") || !strings.Contains(impls, "cnt_ripple") {
		t.Errorf("show impls = %q", impls)
	}
	if impls != execOut(t, env, "show impls") {
		t.Error("show impls is not deterministic")
	}
	comps := execOut(t, env, "show components")
	if !strings.Contains(comps, "Counter") || !strings.Contains(comps, "COUNTER") {
		t.Errorf("show components = %q", comps)
	}
	fns := execOut(t, env, "show functions")
	if !strings.Contains(fns, "ADD") || !strings.Contains(fns, "3 in, 2 out") {
		t.Errorf("show functions = %q", fns)
	}
}

// TestExecDescribe checks the record format and the unknown-name
// suggestion.
func TestExecDescribe(t *testing.T) {
	env := &Env{DB: openTestDB(t)}
	out := execOut(t, env, "describe reg_d")
	for _, want := range []string{
		"name:      reg_d",
		"component: Register",
		"area:      6 (per bit)",
		"width:     1..64 bits",
		"source:",
		"  | NAME",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("describe output missing %q:\n%s", want, out)
		}
	}
	env.Out = &strings.Builder{}
	err := env.Exec("describe reg_e")
	want := `cql: unknown implementation 'reg_e' at col 10 (did you mean "reg_d"?)`
	if err == nil || err.Error() != want {
		t.Errorf("describe reg_e = %v, want %q", err, want)
	}
}

// TestExecExpand checks an expand command end to end through a fake
// file loader, and that a nil loader disables the command.
func TestExecExpand(t *testing.T) {
	const top = `
NAME: top;
INORDER: D[4], load, en, clk;
OUTORDER: Q[4];
SUBCOMPONENT: counter;
{
  #counter(4, D[0], D[1], D[2], D[3], load, en, clk, Q[0], Q[1], Q[2], Q[3]);
}
`
	env := &Env{
		DB: openTestDB(t),
		ReadFile: func(path string) ([]byte, error) {
			if path != "top.iif" {
				return nil, fmt.Errorf("no such design %q", path)
			}
			return []byte(top), nil
		},
	}
	out := execOut(t, env, "expand top.iif")
	if !strings.Contains(out, "INORDER") || !strings.Contains(out, "u0_") {
		t.Errorf("expand output = %q", out)
	}
	insts, err := env.DB.Instances()
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 1 || insts[0].Impl != "cnt_up" {
		t.Errorf("instances = %+v", insts)
	}

	env.Out = &strings.Builder{}
	if err := env.Exec("expand missing.iif"); err == nil || !strings.Contains(err.Error(), "missing.iif") {
		t.Errorf("missing file error = %v", err)
	}

	bare := &Env{DB: env.DB, Out: &strings.Builder{}}
	if err := bare.Exec("expand top.iif"); err == nil || !strings.Contains(err.Error(), "not available") {
		t.Errorf("nil ReadFile error = %v", err)
	}
}

// TestExecHelp checks help prints the command summary.
func TestExecHelp(t *testing.T) {
	env := &Env{DB: openTestDB(t)}
	out := execOut(t, env, "help")
	if !strings.Contains(out, "find component") || !strings.Contains(out, "order by") {
		t.Errorf("help = %q", out)
	}
}

// TestExecLimitZero pins "limit 0" as explicitly unlimited but still
// ranked.
func TestExecLimitZero(t *testing.T) {
	db := openTestDB(t)
	all := run(t, db, "find component executing STORAGE limit 0")
	if len(all) != 2 {
		t.Errorf("limit 0 = %v", names(all))
	}
	if got := names(all); got[0] != "reg_d" {
		t.Errorf("limit 0 not ranked: %v", got)
	}
}

// TestFindAtWidthRanksByEstimatedArea is the PR 5 acceptance criterion:
// "find component ... at width 16 order by area" ranks by the estimator
// value at width 16 and reports it.
func TestFindAtWidthRanksByEstimatedArea(t *testing.T) {
	db := openTestDB(t)
	got := run(t, db, "find component executing STORAGE at width 16 order by area")
	if len(got) != 2 || got[0].Impl.Name != "reg_d" || got[1].Impl.Name != "cnt_up" {
		t.Fatalf("at-width ranking = %v", names(got))
	}
	// Builtin estimators: area = area * width -> 6*16 and 12*16.
	if got[0].Area != 96 || got[1].Area != 192 {
		t.Errorf("estimated areas = %g, %g, want 96, 192", got[0].Area, got[1].Area)
	}
	want, err := db.Query(icdb.Spec{Functions: []genus.Function{genus.FuncSTORAGE}, Where: []icdb.Constraint{icdb.AtWidth(16)}, Order: icdb.Order{Attr: "area"}})
	if err != nil {
		t.Fatal(err)
	}
	assertSameCandidates(t, "at-width", got, want)
}

// TestConstantEstimatorsByteIdenticalToScalar: a catalog of constant
// estimators must render byte-identical CQL output to the scalar engine
// — ordering, TopK, and streamed finds alike.
func TestConstantEstimatorsByteIdenticalToScalar(t *testing.T) {
	scalar := openTestDB(t)
	est := openTestDB(t)
	impls, err := est.Impls()
	if err != nil {
		t.Fatal(err)
	}
	for _, im := range impls {
		// Replace the builtin width-scaling estimators with the constant
		// degenerate case.
		if err := est.RegisterEstimator(im.Name, "area", "area"); err != nil {
			t.Fatal(err)
		}
		if err := est.RegisterEstimator(im.Name, "delay", "delay"); err != nil {
			t.Fatal(err)
		}
	}
	scalarEnv := &Env{DB: scalar}
	estEnv := &Env{DB: est}
	cases := []struct{ scalar, est string }{
		{"find component executing STORAGE with width = 8 order by area limit 5",
			"find component executing STORAGE at width 8 order by area limit 5"},
		{"find component with width = 8 order by cost",
			"find component at width 8 order by cost"},
		{"find impls of type Counter with width = 8 order by delay desc limit 1",
			"find impls of type Counter at width 8 order by delay desc limit 1"},
		{"find component executing ADD with width = 8 limit 3",
			"find component executing ADD at width 8 limit 3"},
	}
	for _, c := range cases {
		want := execOut(t, scalarEnv, c.scalar)
		got := execOut(t, estEnv, c.est)
		if got != want {
			t.Errorf("constant-estimator output diverged\n  scalar %q -> %q\n  est    %q -> %q",
				c.scalar, want, c.est, got)
		}
	}
	// Streamed (unordered) finds: same candidate lines, order unspecified.
	want := strings.Split(strings.TrimSpace(execOut(t, scalarEnv, "find component executing ADD with width = 8")), "\n")
	got := strings.Split(strings.TrimSpace(execOut(t, estEnv, "find component executing ADD at width 8")), "\n")
	normalize := func(lines []string) []string {
		out := make([]string, len(lines))
		for i, l := range lines {
			// Drop the rank number: streamed order is unspecified.
			_, rest, _ := strings.Cut(l, ". ")
			out[i] = rest
		}
		sort.Strings(out)
		return out
	}
	if !equalStrings(normalize(got), normalize(want)) {
		t.Errorf("streamed candidate sets diverged: got %v, want %v", got, want)
	}
}

// TestExecGenerate drives the generate verb: by generator name, by
// component type, reuse reporting, and the error shapes.
func TestExecGenerate(t *testing.T) {
	env := &Env{DB: openTestDB(t)}
	out := execOut(t, env, "generate gen_cnt size=16")
	if !strings.Contains(out, "registered gen_cnt_size_16") || !strings.Contains(out, "area 192") {
		t.Errorf("generate output = %q", out)
	}
	// The emitted implementation is immediately queryable, with its
	// estimated-at-width area reported.
	found := run(t, env.DB, "find component executing COUNTER at width 16 order by area")
	seen := false
	for _, c := range found {
		if c.Impl.Name == "gen_cnt_size_16" {
			seen = true
			if c.Area != 192 {
				t.Errorf("generated impl Area = %g, want 192", c.Area)
			}
		}
	}
	if !seen {
		t.Errorf("generated impl not queryable: %v", names(found))
	}
	out = execOut(t, env, "generate gen_cnt size=16")
	if !strings.Contains(out, "reused gen_cnt_size_16") {
		t.Errorf("re-generate output = %q", out)
	}
	// Component-type resolution picks a matching generator of the type.
	out = execOut(t, env, "generate Counter size=4")
	if !strings.Contains(out, "registered gen_cnt_size_4") || !strings.Contains(out, "(generator gen_cnt)") {
		t.Errorf("generate-by-type output = %q", out)
	}
	env.Out = &strings.Builder{}
	err := env.Exec("generate gen_cnr size=4")
	want := `cql: unknown generator or component type 'gen_cnr' at col 10 (did you mean "gen_cnt"?)`
	if err == nil || err.Error() != want {
		t.Errorf("unknown generator = %v, want %q", err, want)
	}
	if err := env.Exec("generate gen_cnt size=4 extra=1"); err == nil ||
		!strings.Contains(err.Error(), "binding") {
		t.Errorf("over-bound generate = %v", err)
	}
	if err := env.Exec("generate gen_cnt size=500"); err == nil ||
		!strings.Contains(err.Error(), "width range") {
		t.Errorf("out-of-range generate = %v", err)
	}
}

// TestExecEstimate drives the estimate verb: the full line, the
// single-attribute form, and the error shapes.
func TestExecEstimate(t *testing.T) {
	env := &Env{DB: openTestDB(t)}
	out := execOut(t, env, "estimate add_ripple width=16")
	if !strings.Contains(out, "add_ripple at width 16: area 144 delay 96 cost 240") {
		t.Errorf("estimate output = %q", out)
	}
	out = execOut(t, env, "estimate add_ripple width=16 area")
	if strings.TrimSpace(out) != "area(16) = 144" {
		t.Errorf("estimate area output = %q", out)
	}
	out = execOut(t, env, "estimate add_ripple width=16 cost")
	if strings.TrimSpace(out) != "cost(16) = 240" {
		t.Errorf("estimate cost output = %q", out)
	}
	env.Out = &strings.Builder{}
	err := env.Exec("estimate add_rippl width=16")
	want := `cql: unknown implementation 'add_rippl' at col 10 (did you mean "add_ripple"?)`
	if err == nil || err.Error() != want {
		t.Errorf("unknown impl = %v, want %q", err, want)
	}
	err = env.Exec("estimate add_ripple width=65")
	if err == nil || !strings.Contains(err.Error(), "width range") || !strings.Contains(err.Error(), "col 27") {
		t.Errorf("out-of-range estimate = %v", err)
	}
}

// TestExecShowGenerators checks the generators listing.
func TestExecShowGenerators(t *testing.T) {
	env := &Env{DB: openTestDB(t)}
	out := execOut(t, env, "show generators")
	for _, want := range []string{"gen_cnt", "gen_sub", "12 * width", "SUB"} {
		if !strings.Contains(out, want) {
			t.Errorf("show generators missing %q:\n%s", want, out)
		}
	}
	if out != execOut(t, env, "show generators") {
		t.Error("show generators is not deterministic")
	}
}

// TestExecDescribeShowsEstimators: describe prints the estimator rows.
func TestExecDescribeShowsEstimators(t *testing.T) {
	env := &Env{DB: openTestDB(t)}
	out := execOut(t, env, "describe cnt_ripple")
	for _, want := range []string{"estimator: area = area * width", "estimator: delay = delay * width"} {
		if !strings.Contains(out, want) {
			t.Errorf("describe missing %q:\n%s", want, out)
		}
	}
}

// TestGenerateByTypeFiltersWidthRange: component-type generator
// selection must skip generators that cannot cover the bound size, even
// when they are cheaper than one that can.
func TestGenerateByTypeFiltersWidthRange(t *testing.T) {
	env := &Env{DB: openTestDB(t)}
	// A cheap Counter generator that stops at 8 bits; the builtin
	// gen_cnt (1..128) must win for size=16 despite costing more.
	src := `
NAME: gen_tiny;
PARAMETER: size;
VARIABLE: i;
INORDER: D[size], load, en, clk;
OUTORDER: Q[size];
{
  #for(i = 0; i < size; i++)
    Q[i] = (D[i] (+) en) @ (~r clk);
}
`
	if err := env.DB.RegisterGenerator(icdb.Generator{
		Name:      "gen_tiny",
		Component: genus.CompCounter,
		Style:     "test",
		Functions: []genus.Function{genus.FuncCOUNTER},
		WidthMin:  1, WidthMax: 8, Stages: 1,
		Params:    []string{"size"},
		AreaExpr:  "1",
		DelayExpr: "1",
		Source:    src,
	}); err != nil {
		t.Fatal(err)
	}
	out := execOut(t, env, "generate Counter size=16")
	if !strings.Contains(out, "(generator gen_cnt)") {
		t.Errorf("size=16 selection = %q, want gen_cnt (gen_tiny cannot cover 16)", out)
	}
	out = execOut(t, env, "generate Counter size=4")
	if !strings.Contains(out, "(generator gen_tiny)") {
		t.Errorf("size=4 selection = %q, want the cheaper gen_tiny", out)
	}
}
