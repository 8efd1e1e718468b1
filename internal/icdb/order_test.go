package icdb

import (
	"sort"
	"strings"
	"testing"

	"icdb/internal/genus"
	"icdb/internal/relstore"
)

func openTestDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(relstore.New())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

// TestQueryOrderedByAttr checks that every order key sorts the full
// catalog by that attribute (ties by name), ascending and descending,
// and that Cost still carries the weighted score.
func TestQueryOrderedByAttr(t *testing.T) {
	db := openTestDB(t)
	for _, key := range OrderKeys() {
		for _, desc := range []bool{false, true} {
			order := Order{Attr: key, Desc: desc}
			cands, err := db.Query(Spec{Order: order})
			if err != nil {
				t.Fatalf("Query(%+v): %v", order, err)
			}
			if len(cands) == 0 {
				t.Fatalf("Query(%+v): no candidates", order)
			}
			if !sort.SliceIsSorted(cands, func(i, j int) bool {
				ri := order.rank(&cands[i].Impl, cands[i].Area, cands[i].Delay, cands[i].Cost)
				rj := order.rank(&cands[j].Impl, cands[j].Area, cands[j].Delay, cands[j].Cost)
				if ri != rj {
					return ri < rj
				}
				return cands[i].Impl.Name < cands[j].Impl.Name
			}) {
				t.Errorf("Query(%+v): result not sorted", order)
			}
			for _, c := range cands {
				if want := c.Impl.Area + c.Impl.Delay; c.Cost != want {
					t.Errorf("Query(%+v): %s Cost = %g, want weighted %g",
						order, c.Impl.Name, c.Cost, want)
				}
			}
		}
	}
}

// TestOrderedTopKMatchesUnbounded checks the TopK heap path returns
// exactly the unbounded ranking truncated, for a non-default key in both
// directions.
func TestOrderedTopKMatchesUnbounded(t *testing.T) {
	db := openTestDB(t)
	for _, order := range []Order{
		{Attr: "delay"},
		{Attr: "delay", Desc: true},
		{Attr: "area"},
		{},
	} {
		all, err := db.Query(Spec{Functions: []genus.Function{genus.FuncSTORAGE}, Order: order})
		if err != nil {
			t.Fatalf("unbounded: %v", err)
		}
		for k := 1; k <= len(all)+1; k++ {
			got, err := db.Query(Spec{Functions: []genus.Function{genus.FuncSTORAGE}, Order: order, Limit: k})
			if err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			want := all
			if k < len(all) {
				want = all[:k]
			}
			if len(got) != len(want) {
				t.Fatalf("order %+v k=%d: got %d candidates, want %d", order, k, len(got), len(want))
			}
			for i := range got {
				if got[i].Impl.Name != want[i].Impl.Name || got[i].Cost != want[i].Cost {
					t.Errorf("order %+v k=%d: [%d] = %s/%g, want %s/%g",
						order, k, i, got[i].Impl.Name, got[i].Cost, want[i].Impl.Name, want[i].Cost)
				}
			}
		}
	}
}

// TestOrderedDefaultEqualsTopK pins the compatibility contract: the zero
// Order is exactly the explicit cost ranking.
func TestOrderedDefaultEqualsTopK(t *testing.T) {
	db := openTestDB(t)
	legacy, err := db.Query(Spec{Functions: []genus.Function{genus.FuncSTORAGE}, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := db.Query(Spec{Functions: []genus.Function{genus.FuncSTORAGE}, Order: Order{Attr: OrderKeyCost}, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(legacy) != len(ordered) {
		t.Fatalf("got %d vs %d candidates", len(ordered), len(legacy))
	}
	for i := range legacy {
		if legacy[i].Impl.Name != ordered[i].Impl.Name {
			t.Errorf("[%d] = %s, want %s", i, ordered[i].Impl.Name, legacy[i].Impl.Name)
		}
	}
}

// TestQueryByFunctionsOfTypeOrdered checks the combined type+function
// query filters in-stream: reg_d executes STORAGE but is not a
// Counter, and the bound applies after the type filter.
func TestQueryByFunctionsOfTypeOrdered(t *testing.T) {
	db := openTestDB(t)
	got, err := db.Query(Spec{Functions: []genus.Function{genus.FuncSTORAGE}, Type: genus.CompCounter, Order: Order{Attr: "delay"}, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Impl.Name != "cnt_up" {
		t.Fatalf("got %+v, want [cnt_up]", got)
	}
	if _, err := db.Query(Spec{Functions: []genus.Function{genus.FuncSTORAGE}, Type: "Bogus"}); err == nil {
		t.Error("want error for unknown component type")
	}
	// Case-insensitive type, like every CQL-facing entry point.
	got, err = db.Query(Spec{Functions: []genus.Function{genus.FuncSTORAGE}, Type: "counter"})
	if err != nil || len(got) != 1 {
		t.Fatalf("lower-case type: %v, %v", got, err)
	}
}

func TestOrderValidate(t *testing.T) {
	db := openTestDB(t)
	_, err := db.Query(Spec{Order: Order{Attr: "cots"}})
	if err == nil {
		t.Fatal("want error for unknown order key")
	}
	if !strings.Contains(err.Error(), `"cots"`) || !strings.Contains(err.Error(), "cost") {
		t.Errorf("error %q should name the bad key and the vocabulary", err)
	}
	if _, err := db.Query(Spec{Type: genus.CompCounter, Order: Order{Attr: "width_min", Desc: true}}); err != nil {
		t.Errorf("width_min is a valid order key: %v", err)
	}
}

func TestAttrCmp(t *testing.T) {
	cases := []struct {
		attr string
		op   CmpOp
		v    float64
		a    Attrs
		want bool
	}{
		{"area", CmpLE, 10, Attrs{"area": 10}, true},
		{"area", CmpLT, 10, Attrs{"area": 10}, false},
		{"area", CmpLE, 10.5, Attrs{"area": 10.2}, true},
		{"delay", CmpGE, 2, Attrs{"delay": 1.5}, false},
		{"delay", CmpGT, 1, Attrs{"delay": 1.5}, true},
		{"stages", CmpEQ, 0, Attrs{"stages": 0}, true},
		{"stages", CmpNE, 0, Attrs{"stages": 0}, false},
		{"width_max", CmpGE, 8, Attrs{"width_max": 64}, true},
	}
	for _, c := range cases {
		con, err := AttrCmp(c.attr, c.op, c.v)
		if err != nil {
			t.Fatalf("AttrCmp(%s %s %g): %v", c.attr, c.op, c.v, err)
		}
		got, err := con.Accept(c.a)
		if err != nil {
			t.Fatalf("Accept(%s %s %g): %v", c.attr, c.op, c.v, err)
		}
		if got != c.want {
			t.Errorf("%s %s %g over %v = %v, want %v", c.attr, c.op, c.v, c.a, got, c.want)
		}
	}
}

func TestAttrCmpRejectsUnknown(t *testing.T) {
	if _, err := AttrCmp("bogus", CmpLE, 1); err == nil {
		t.Error("want error for unknown attribute")
	}
	if _, err := AttrCmp("area", CmpOp("~"), 1); err == nil {
		t.Error("want error for unknown operator")
	}
}

// TestAttrCmpConstrainsQueries runs AttrCmp through a real query, mixed
// with the pre-existing constraint constructors.
func TestAttrCmpConstrainsQueries(t *testing.T) {
	db := openTestDB(t)
	lt, err := AttrCmp("area", CmpLE, 10)
	if err != nil {
		t.Fatal(err)
	}
	viaCmp, err := db.Query(Spec{Functions: []genus.Function{genus.FuncSTORAGE}, Where: []Constraint{lt, ForWidth(8)}})
	if err != nil {
		t.Fatal(err)
	}
	viaMax, err := db.Query(Spec{Functions: []genus.Function{genus.FuncSTORAGE}, Where: []Constraint{MaxArea(10), ForWidth(8)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(viaCmp) == 0 || len(viaCmp) != len(viaMax) {
		t.Fatalf("AttrCmp path found %d candidates, MaxArea path %d", len(viaCmp), len(viaMax))
	}
	for i := range viaCmp {
		if viaCmp[i].Impl.Name != viaMax[i].Impl.Name {
			t.Errorf("[%d] = %s, want %s", i, viaCmp[i].Impl.Name, viaMax[i].Impl.Name)
		}
	}
}
