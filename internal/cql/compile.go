package cql

import (
	"sort"
	"strings"

	"icdb/internal/genus"
	"icdb/internal/icdb"
)

// FindQuery is a compiled FindStmt, bound to a database and ready to
// run. Compilation resolves the statement's vocabulary (functions,
// component type, order key) and lowers it onto one engine query spec;
// Run picks Query or Scan.
type FindQuery struct {
	db     *icdb.DB
	spec   icdb.Spec
	ranked bool
}

// CompileFind lowers a parsed find command onto db's query engine.
// Vocabulary errors (unknown function or component type) are returned
// as *Error values positioned at the offending word, with suggestions.
func CompileFind(db *icdb.DB, f *FindStmt) (*FindQuery, error) {
	q := &FindQuery{db: db}
	if f.Type != nil {
		ct, ok := genus.NormalizeComponentType(f.Type.Text)
		if !ok {
			return nil, &Error{Col: f.Type.Col,
				Msg:  "unknown component type '" + f.Type.Text + "'",
				Hint: suggest(f.Type.Text, componentTypeNames())}
		}
		q.spec.Type = ct
	}
	for _, w := range f.Executing {
		fn, err := genus.NormalizeFunction(w.Text)
		if err != nil {
			return nil, &Error{Col: w.Col,
				Msg:  "unknown function '" + w.Text + "'",
				Hint: suggest(w.Text, functionNames())}
		}
		q.spec.Functions = append(q.spec.Functions, fn)
	}
	for i := range f.Where {
		c, err := compileCond(&f.Where[i])
		if err != nil {
			return nil, err
		}
		q.spec.Where = append(q.spec.Where, c)
	}
	if f.At != nil {
		// The evaluation point both restricts candidates to the width and
		// makes every area/delay the engine filters, ranks, or reports the
		// estimator value at it.
		q.spec.Where = append(q.spec.Where, icdb.AtWidth(f.At.Width))
	}
	if f.OrderBy != nil {
		q.spec.Order = icdb.Order{Attr: f.OrderBy.Key.Text, Desc: f.OrderBy.Desc}
		q.ranked = true
	}
	if f.HasLimit {
		q.spec.Limit = f.Limit
		q.ranked = true
	}
	return q, nil
}

// compileCond lowers one attribute comparison onto an engine constraint.
// The "width" attribute is sugar over the implementation's width range:
//
//	width = n   → the range covers n (icdb.ForWidth)
//	width >= n  → some covered width is >= n (width_max >= n)
//	width > n   → width_max > n
//	width <= n  → some covered width is <= n (width_min <= n)
//	width < n   → width_min < n
//
// "width != n" has no single-range meaning and is rejected.
func compileCond(c *Cond) (icdb.Constraint, error) {
	if c.Attr.Text == "width" {
		switch c.Op {
		case EQ:
			if !c.ValueIsInt {
				return icdb.Constraint{}, errf(c.ValueCol, "width must be a whole number of bits, got %g", c.Value)
			}
			return icdb.ForWidth(int(c.Value)), nil
		case GE:
			return icdb.AttrCmp("width_max", icdb.CmpGE, c.Value)
		case GT:
			return icdb.AttrCmp("width_max", icdb.CmpGT, c.Value)
		case LE:
			return icdb.AttrCmp("width_min", icdb.CmpLE, c.Value)
		case LT:
			return icdb.AttrCmp("width_min", icdb.CmpLT, c.Value)
		}
		return icdb.Constraint{}, errf(c.OpCol, "'width != n' is not expressible over a width range; constrain width_min or width_max directly")
	}
	op, ok := map[Kind]icdb.CmpOp{
		LE: icdb.CmpLE, LT: icdb.CmpLT, GE: icdb.CmpGE,
		GT: icdb.CmpGT, EQ: icdb.CmpEQ, NE: icdb.CmpNE,
	}[c.Op]
	if !ok {
		return icdb.Constraint{}, errf(c.OpCol, "operator %s not valid in a constraint", c.OpText)
	}
	con, err := icdb.AttrCmp(c.Attr.Text, op, c.Value)
	if err != nil {
		return icdb.Constraint{}, errf(c.Attr.Col, "%v", err)
	}
	return con, nil
}

// Run executes the query, yielding each candidate to visit; visit
// returning false stops the delivery.
//
// Without an order-by or limit clause the query streams through
// icdb.DB.Scan: candidates arrive in unspecified order, the yielded Impl
// shares the cache's backing (read-only; Clone to retain), and visit
// must not call back into the DB. With an order-by or limit clause it
// runs icdb.DB.Query — bounded by the TopK heap — and visit receives
// caller-owned candidates, best first.
func (q *FindQuery) Run(visit func(icdb.Candidate) bool) error {
	if !q.ranked {
		return q.db.Scan(q.spec, visit)
	}
	cands, err := q.db.Query(q.spec)
	if err != nil {
		return err
	}
	for _, c := range cands {
		if !visit(c) {
			return nil
		}
	}
	return nil
}

// functionNames returns the GENUS function vocabulary as strings, for
// suggestions.
func functionNames() []string {
	fns := genus.AllFunctions()
	out := make([]string, len(fns))
	for i, f := range fns {
		out[i] = string(f)
	}
	return out
}

// componentTypeNames returns the GENUS component-type vocabulary as
// strings, for suggestions.
func componentTypeNames() []string {
	cts := genus.AllComponentTypes()
	out := make([]string, len(cts))
	for i, ct := range cts {
		out[i] = string(ct)
	}
	return out
}

// generatorNames lists the registered generator names, sorted, for
// generate-command suggestions.
func generatorNames(db *icdb.DB) []string {
	gens, err := db.Generators()
	if err != nil {
		return nil
	}
	out := make([]string, len(gens))
	for i := range gens {
		out[i] = gens[i].Name
	}
	return out
}

// implNames lists the registered implementation names, sorted, for
// describe-command suggestions.
func implNames(db *icdb.DB) []string {
	impls, err := db.Impls()
	if err != nil {
		return nil
	}
	out := make([]string, len(impls))
	for i := range impls {
		out[i] = impls[i].Name
	}
	sort.Strings(out)
	return out
}

// joinFns renders a function set the way the catalog prints it.
func joinFns(fns []genus.Function) string {
	ss := make([]string, len(fns))
	for i, f := range fns {
		ss[i] = string(f)
	}
	return strings.Join(ss, ",")
}
