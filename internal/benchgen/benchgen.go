// Package benchgen generates deterministic synthetic ICDB catalogs at
// benchmark scale (DB4HLS-style component databases reach 100k+ entries)
// and provides reference implementations of the pre-index full-scan read
// paths, so benchmarks can compare the planner/index engine against the
// behavior it replaced using the same public API surface.
//
// Everything here is deterministic: implementation i is always the same
// implementation, with attributes derived from small fixed mixers, so
// benchmark runs are comparable across machines and commits.
package benchgen

import (
	"fmt"
	"sort"

	"icdb/internal/genus"
	"icdb/internal/icdb"
	"icdb/internal/relstore"
)

// srcTemplate is the IIF source every synthetic implementation carries: a
// minimal parseable single-stage network with the conventional "size"
// width parameter. Registration parses it, so catalog population also
// exercises the IIF front-end at scale.
const srcTemplate = `
NAME: %s;
PARAMETER: size;
VARIABLE: i;
INORDER: A[size], B[size];
OUTORDER: O[size];
{
  #for(i = 0; i < size; i++)
    O[i] = A[i] * B[i];
}
`

// NameOf returns the name of the i-th synthetic implementation.
func NameOf(i int) string { return fmt.Sprintf("gen_%06d", i) }

// ImplAt returns the i-th synthetic implementation. Component types
// rotate through the full GENUS catalog; function sets are growing
// prefixes of each type's function set; width ranges, stages, area, and
// delay are spread by fixed mixers so constraint predicates select
// non-trivial subsets.
func ImplAt(i int) icdb.Impl {
	cts := genus.AllComponentTypes()
	ct := cts[i%len(cts)]
	fns := genus.Functions(ct)
	name := NameOf(i)
	return icdb.Impl{
		Name:      name,
		Component: ct,
		Style:     "synthetic",
		Functions: fns[:1+i%len(fns)],
		WidthMin:  1 + i%4,
		WidthMax:  8 + i%120,
		Stages:    i % 4,
		Area:      float64(1 + (i*13)%97),
		Delay:     float64(1 + (i*7)%53),
		Params:    []string{"size"},
		Source:    fmt.Sprintf(srcTemplate, name),
	}
}

// Populate registers n synthetic implementations into db through the
// validating RegisterImpl path (IIF parse included).
func Populate(db *icdb.DB, n int) error {
	for i := 0; i < n; i++ {
		if err := db.RegisterImpl(ImplAt(i)); err != nil {
			return fmt.Errorf("benchgen: impl %d: %w", i, err)
		}
	}
	return nil
}

// PopulateEstimators registers width-scaling estimator expressions for
// the first n synthetic implementations ("area * width" — the per-bit
// estimate times the evaluation point — and a constant "delay"), so
// benchmarks can measure the width-aware query path against a catalog
// where every candidate pays an estimator evaluation.
func PopulateEstimators(db *icdb.DB, n int) error {
	for i := 0; i < n; i++ {
		name := NameOf(i)
		if err := db.RegisterEstimator(name, "area", "area * width"); err != nil {
			return fmt.Errorf("benchgen: estimator %d: %w", i, err)
		}
		if err := db.RegisterEstimator(name, "delay", "delay"); err != nil {
			return fmt.Errorf("benchgen: estimator %d: %w", i, err)
		}
	}
	return nil
}

// NewDB opens a fresh in-memory database holding the builtin library
// plus n synthetic implementations.
func NewDB(n int) (*icdb.DB, error) {
	db, err := icdb.Open(relstore.New())
	if err != nil {
		return nil, err
	}
	if err := Populate(db, n); err != nil {
		return nil, err
	}
	return db, nil
}

// FullScanQueryByFunction reproduces the pre-index query path exactly:
// select and decode every implementation row, filter by function
// membership and constraints per row, then sort the survivors. It is the
// "before" side of the query benchmarks.
func FullScanQueryByFunction(db *icdb.DB, fn genus.Function, cs ...icdb.Constraint) ([]icdb.Candidate, error) {
	impls, err := db.Impls()
	if err != nil {
		return nil, err
	}
	wa, wd := 1.0, 1.0
	if v, ok := db.ToolParam("icdb", "area_weight"); ok {
		wa = v
	}
	if v, ok := db.ToolParam("icdb", "delay_weight"); ok {
		wd = v
	}
	var out []icdb.Candidate
	for _, im := range impls {
		has := make(map[genus.Function]bool, len(im.Functions))
		for _, f := range im.Functions {
			has[f] = true
		}
		if !has[fn] {
			continue
		}
		ok := true
		for _, c := range cs {
			pass, err := c.Accept(im.Attrs())
			if err != nil {
				return nil, err
			}
			if !pass {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		out = append(out, icdb.Candidate{Impl: im, Area: im.Area, Delay: im.Delay, Cost: im.Area*wa + im.Delay*wd})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Cost != out[j].Cost {
			return out[i].Cost < out[j].Cost
		}
		return out[i].Impl.Name < out[j].Impl.Name
	})
	return out, nil
}

// FullScanImplRow reproduces the pre-index lookup path: a predicate scan
// of the implementations relation for one name (decoding the row is
// negligible next to the scan, so the reference stops at the raw row).
func FullScanImplRow(db *icdb.DB, name string) (relstore.Row, error) {
	return db.Store().SelectOne(icdb.TableImplementations,
		relstore.Func(func(r relstore.Row) bool { return r["name"] == name }))
}

// StreamedQueryByFunction materializes the streaming query path into the
// ranked shape Query returns, so tests and the bench harness
// can cross-validate the two result paths candidate for candidate. (Real
// streaming consumers fold or filter in the visitor instead; collecting
// defeats the point outside of validation.)
func StreamedQueryByFunction(db *icdb.DB, fn genus.Function, cs ...icdb.Constraint) ([]icdb.Candidate, error) {
	var out []icdb.Candidate
	err := db.Scan(icdb.Spec{Functions: []genus.Function{fn}, Where: cs}, func(c icdb.Candidate) bool {
		c.Impl = c.Impl.Clone() // the streamed Impl must not be retained as-is
		out = append(out, c)
		return true
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Cost != out[j].Cost {
			return out[i].Cost < out[j].Cost
		}
		return out[i].Impl.Name < out[j].Impl.Name
	})
	return out, nil
}
