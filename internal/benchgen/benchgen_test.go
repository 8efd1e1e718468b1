package benchgen

import (
	"testing"

	"icdb/internal/genus"
	"icdb/internal/icdb"
)

// TestIndexedQueryMatchesFullScanReference cross-validates the two query
// engines: on a synthetic catalog, the indexed path must return exactly
// the candidates (and order) of the pre-index full-scan reference, for a
// spread of functions and constraints.
func TestIndexedQueryMatchesFullScanReference(t *testing.T) {
	db, err := NewDB(300)
	if err != nil {
		t.Fatal(err)
	}
	constraints := [][]icdb.Constraint{
		nil,
		{icdb.MaxArea(40)},
		{icdb.ForWidth(16)},
		{icdb.MustWhere("area + delay < 60 && stages >= 1")},
	}
	for _, fn := range []genus.Function{genus.FuncADD, genus.FuncSTORAGE, genus.FuncAND, genus.FuncMuxSCL} {
		for _, cs := range constraints {
			want, err := FullScanQueryByFunction(db, fn, cs...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := db.Query(icdb.Spec{Functions: []genus.Function{fn}, Where: cs})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s %v: indexed %d candidates, full scan %d", fn, cs, len(got), len(want))
			}
			for i := range got {
				if got[i].Impl.Name != want[i].Impl.Name || got[i].Cost != want[i].Cost {
					t.Fatalf("%s %v: [%d] indexed %s/%g, full scan %s/%g",
						fn, cs, i, got[i].Impl.Name, got[i].Cost, want[i].Impl.Name, want[i].Cost)
				}
			}
		}
	}
}

// TestDeterminism: implementation i is identical across calls, and the
// reference lookup finds it.
func TestDeterminism(t *testing.T) {
	a, b := ImplAt(17), ImplAt(17)
	if a.Name != b.Name || a.Area != b.Area || a.Delay != b.Delay || len(a.Functions) != len(b.Functions) {
		t.Fatalf("ImplAt not deterministic: %+v vs %+v", a, b)
	}
	db, err := NewDB(50)
	if err != nil {
		t.Fatal(err)
	}
	row, err := FullScanImplRow(db, NameOf(17))
	if err != nil {
		t.Fatal(err)
	}
	if row["component"] != string(a.Component) {
		t.Errorf("row component = %v, want %v", row["component"], a.Component)
	}
	im, err := db.ImplByName(NameOf(17))
	if err != nil || im.Area != a.Area {
		t.Errorf("ImplByName = %+v (%v)", im, err)
	}
}
