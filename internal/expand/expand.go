// Package expand turns parameterized IIF designs into flat equation
// networks. It is the ICDB expander of §5: given a design and actual
// parameter values it evaluates the C-like control constructs (#for,
// #if, #c_line), flattens indexed signals to scalars ("Q[3]"), resolves
// every subcomponent call through the component database (by
// implementation name, component type, or function), and splices the
// callee's expanded network into the caller under a unique instance
// prefix. Expanded (implementation, bindings) pairs are recorded as
// database instances and cached so repeated expansions reuse the work.
package expand

import (
	"fmt"
	"regexp"
	"slices"
	"strings"

	"icdb/internal/eqn"
	"icdb/internal/genus"
	"icdb/internal/icdb"
	"icdb/internal/iif"
)

// maxLoopIters bounds a single #for loop so a bad step expression cannot
// hang expansion.
const maxLoopIters = 1 << 16

// Expander expands IIF designs against a component database.
//
// An Expander memoizes parsed implementation sources, call-name
// resolutions, and expanded (implementation, bindings) templates for its
// lifetime. Re-registering an implementation in the database does not
// invalidate these caches: create a fresh Expander to pick up changed
// sources.
type Expander struct {
	db *icdb.DB
	// MaxDepth bounds nested component expansion (cycles in the
	// implementation library would otherwise recurse forever).
	MaxDepth int

	designs  map[string]*iif.Design // parsed implementation sources, by name
	nets     map[string]*eqn.Network
	netDeps  map[string][]instReq     // template key -> transitive subcomponent requests
	resolved map[resolveKey]icdb.Impl // #call resolution memo (stored impls only)
	protos   map[string]*proto        // #call arity-prototype memo, by call name
}

// resolveKey memoizes #call resolution per (name, full binding set,
// port count): two calls sharing a name but binding different parameter
// points — or connecting different port shapes — may legitimately
// resolve to different implementations, because both the width filter
// and the port-shape filter evaluate against the bindings (a non-size
// parameter can appear in a candidate's port dimensions). Generator-
// emitted implementations are never memoized here: Generate itself
// dedups per point.
type resolveKey struct {
	name     string
	bindings string // icdb.BindingsKey of the evaluated parameter point
	ports    int
}

// proto is the arity prototype of a #call: the implementation or
// generator that fixes the call's parameter list before the parameter
// arguments are evaluated. Exactly one of im and gen is non-nil; exact
// records whether the call named it directly (exact resolutions are
// authoritative — a width the named entry cannot cover is an error, not
// a substitution).
type proto struct {
	im     *icdb.Impl
	gen    *icdb.Generator
	exact  bool
	params []string
}

// instReq is one recorded instantiation request: which implementation a
// template splices, with which bindings. Replayed on template cache
// hits to keep the instances relation's use counts honest.
type instReq struct {
	impl     string
	bindings map[string]int
}

// New creates an expander over db.
func New(db *icdb.DB) *Expander {
	return &Expander{
		db:       db,
		MaxDepth: 16,
		designs:  make(map[string]*iif.Design),
		nets:     make(map[string]*eqn.Network),
		netDeps:  make(map[string][]instReq),
		resolved: make(map[resolveKey]icdb.Impl),
		protos:   make(map[string]*proto),
	}
}

// Expand flattens design d with the given parameter values. Every
// declared PARAMETER must be bound; unknown names are rejected.
func (e *Expander) Expand(d *iif.Design, params map[string]int) (*eqn.Network, error) {
	return e.expand(d, params, d.Name, 0)
}

// ExpandImpl looks implementation name up in the database, parses its
// IIF source, and expands it. This records a database instance exactly
// like a subcomponent call would.
func (e *Expander) ExpandImpl(name string, params map[string]int) (*eqn.Network, error) {
	im, err := e.db.ImplByName(name)
	if err != nil {
		return nil, err
	}
	d, err := e.design(im)
	if err != nil {
		return nil, err
	}
	// Enforce the implementation's width metadata exactly like the
	// #call path does.
	if sz, ok := params["size"]; ok && (sz < im.WidthMin || sz > im.WidthMax) {
		return nil, fmt.Errorf("expand: %s: size %d outside implementation width range [%d,%d]",
			im.Name, sz, im.WidthMin, im.WidthMax)
	}
	// Share the template cache with the #call path: repeated expansions
	// of the same (implementation, bindings) pair reuse the work. The
	// caller gets a clone so the cached template stays pristine.
	net, _, err := e.template(d, im, params, d.Name, 0)
	if err != nil {
		return nil, err
	}
	if err := e.recordInstance(d.Name, im, params); err != nil {
		return nil, err
	}
	return net.Clone(), nil
}

// design returns the parsed IIF source of im, memoized.
func (e *Expander) design(im icdb.Impl) (*iif.Design, error) {
	if d, ok := e.designs[im.Name]; ok {
		return d, nil
	}
	d, err := iif.Parse(im.Source)
	if err != nil {
		return nil, fmt.Errorf("expand: implementation %q: %w", im.Name, err)
	}
	e.designs[im.Name] = d
	return d, nil
}

func instKey(impl string, bindings map[string]int) string {
	return impl + "|" + icdb.BindingsKey(bindings)
}

// reservedPrefix matches the "u<N>_" instance-prefix namespace; user
// signals may not live there or a spliced subcomponent could silently
// capture them.
var reservedPrefix = regexp.MustCompile(`^u[0-9]+_`)

// template returns the expanded network for (im, bindings) through the
// cache, reporting whether it was served from cache.
func (e *Expander) template(d *iif.Design, im icdb.Impl, bindings map[string]int, design string, depth int) (net *eqn.Network, cached bool, err error) {
	key := instKey(im.Name, bindings)
	if net, ok := e.nets[key]; ok {
		return net, true, nil
	}
	var nested []instReq
	net, err = e.expandCollect(d, bindings, design, depth, &nested)
	if err != nil {
		return nil, false, err
	}
	e.nets[key] = net
	e.netDeps[key] = nested
	return net, false, nil
}

// recordInstance records the (im, bindings) instantiation plus the
// template's nested subcomponent requests. Template expansion itself
// never touches the instances relation (it only collects requests), so
// recording happens exactly once per validated splice — and a failed
// call records nothing, nested or not.
func (e *Expander) recordInstance(design string, im icdb.Impl, bindings map[string]int) error {
	if _, _, err := e.db.Instantiate(design, im.Name, bindings); err != nil {
		return err
	}
	for _, dep := range e.netDeps[instKey(im.Name, bindings)] {
		if _, _, err := e.db.Instantiate(design, dep.impl, dep.bindings); err != nil {
			return err
		}
	}
	return nil
}

func (e *Expander) expand(d *iif.Design, params map[string]int, design string, depth int) (*eqn.Network, error) {
	return e.expandCollect(d, params, design, depth, nil)
}

// expandCollect is expand with an optional collector that receives the
// instantiation requests made while expanding (used for template
// cache-hit replay).
func (e *Expander) expandCollect(d *iif.Design, params map[string]int, design string, depth int, deps *[]instReq) (*eqn.Network, error) {
	if depth > e.MaxDepth {
		return nil, fmt.Errorf("expand: %s: component nesting deeper than %d (recursive library?)", d.Name, e.MaxDepth)
	}
	x := &expansion{
		ex:     e,
		d:      d,
		design: design,
		depth:  depth,
		deps:   deps,
		net:    eqn.NewNetwork(d.Name),
		params: make(map[string]int, len(d.Params)),
		vars:   make(map[string]int, len(d.Vars)),
		dims:   make(map[string][]int),
	}
	for _, p := range d.Params {
		v, ok := params[p]
		if !ok {
			return nil, fmt.Errorf("expand: %s: parameter %q is unbound", d.Name, p)
		}
		x.params[p] = v
	}
	for p := range params {
		if _, ok := x.params[p]; !ok {
			return nil, fmt.Errorf("expand: %s: no such parameter %q (have %v)", d.Name, p, d.Params)
		}
	}
	for _, v := range d.Vars {
		if _, clash := x.params[v]; clash {
			return nil, fmt.Errorf("expand: %s: %q is both PARAMETER and VARIABLE", d.Name, v)
		}
		x.vars[v] = 0
	}
	var err error
	if x.net.Inputs, err = x.flatten(d.Inputs); err != nil {
		return nil, err
	}
	if x.net.Outputs, err = x.flatten(d.Outputs); err != nil {
		return nil, err
	}
	if x.net.Internals, err = x.flatten(d.Internal); err != nil {
		return nil, err
	}
	if d.Body == nil {
		return nil, fmt.Errorf("expand: %s: design has no body", d.Name)
	}
	if err := x.exec(d.Body); err != nil {
		return nil, err
	}
	return x.net, nil
}

// expansion is the mutable state of one design expansion.
type expansion struct {
	ex     *Expander
	d      *iif.Design
	design string // top-level design name, for instance records
	depth  int
	net    *eqn.Network
	params map[string]int
	vars   map[string]int
	dims   map[string][]int // declared signal name -> dimensions (empty = scalar)
	nInst  int
	// deps, when non-nil, collects the instantiation requests made by
	// this expansion (it is a template being cached).
	deps *[]instReq
	// noMutate rejects ++/-- during speculative constant folding
	// (tryInt), so signal-expression folds cannot change variables.
	noMutate bool
}

// flatten evaluates declaration dimensions and expands each declared
// signal into its scalar names ("D[size]" with size=2 becomes D[0], D[1]).
func (x *expansion) flatten(decls []iif.SignalDecl) ([]string, error) {
	var names []string
	for _, sd := range decls {
		if reservedPrefix.MatchString(sd.Name) {
			return nil, iif.Errf(sd.Pos, "signal %q uses the reserved instance-prefix namespace u<N>_", sd.Name)
		}
		if _, isVar := x.vars[sd.Name]; isVar {
			return nil, iif.Errf(sd.Pos, "signal %q collides with a VARIABLE", sd.Name)
		}
		if _, isParam := x.params[sd.Name]; isParam {
			return nil, iif.Errf(sd.Pos, "signal %q collides with a PARAMETER", sd.Name)
		}
		if _, dup := x.dims[sd.Name]; dup {
			return nil, iif.Errf(sd.Pos, "signal %q declared twice", sd.Name)
		}
		dims := make([]int, len(sd.Dims))
		for i, de := range sd.Dims {
			// Dimensions are pure expressions over parameters; ++/--
			// here would silently corrupt variables before the body runs.
			v, err := x.evalIntPure(de)
			if err != nil {
				return nil, err
			}
			if v < 1 {
				return nil, iif.Errf(sd.Pos, "signal %s: dimension %d evaluates to %d", sd.Name, i, v)
			}
			dims[i] = v
		}
		x.dims[sd.Name] = dims
		names = append(names, scalarNames(sd.Name, dims)...)
	}
	return names, nil
}

func scalarNames(base string, dims []int) []string {
	if len(dims) == 0 {
		return []string{base}
	}
	var out []string
	for i := 0; i < dims[0]; i++ {
		out = append(out, scalarNames(fmt.Sprintf("%s[%d]", base, i), dims[1:])...)
	}
	return out
}

// scalarName resolves a signal reference to its flat scalar name,
// checking declared dimensions when known.
func (x *expansion) scalarName(r *iif.Ref) (string, error) {
	if reservedPrefix.MatchString(r.Name) {
		return "", iif.Errf(r.Pos, "signal %q uses the reserved instance-prefix namespace u<N>_", r.Name)
	}
	if _, isVar := x.vars[r.Name]; isVar {
		return "", iif.Errf(r.Pos, "%q is a C variable, not a signal", r.Name)
	}
	if _, isParam := x.params[r.Name]; isParam {
		return "", iif.Errf(r.Pos, "%q is a parameter, not a signal", r.Name)
	}
	idx := make([]int, len(r.Index))
	for i, ie := range r.Index {
		// Indices are pure: Q[i++] mutating the loop variable would be
		// a silent corruption, so ++/-- is rejected here.
		v, err := x.evalIntPure(ie)
		if err != nil {
			return "", err
		}
		idx[i] = v
	}
	if dims, declared := x.dims[r.Name]; declared {
		if len(idx) != len(dims) {
			return "", iif.Errf(r.Pos, "signal %q has %d dimension(s), referenced with %d index(es)", r.Name, len(dims), len(idx))
		}
		for i, v := range idx {
			if v < 0 || v >= dims[i] {
				return "", iif.Errf(r.Pos, "signal %q index %d out of range [0,%d)", r.Name, v, dims[i])
			}
		}
	}
	name := r.Name
	for _, v := range idx {
		name = fmt.Sprintf("%s[%d]", name, v)
	}
	return name, nil
}

// ---- statements ----

// Loop-control sentinels.
type ctrlError int

const (
	ctrlBreak ctrlError = iota
	ctrlContinue
)

func (c ctrlError) Error() string {
	if c == ctrlBreak {
		return "#break outside a loop"
	}
	return "#continue outside a loop"
}

func (x *expansion) exec(s iif.Stmt) error {
	switch st := s.(type) {
	case *iif.Block:
		for _, inner := range st.Stmts {
			if err := x.exec(inner); err != nil {
				return err
			}
		}
		return nil

	case *iif.Assign:
		return x.assign(st)

	case *iif.If:
		v, err := x.evalInt(st.Cond)
		if err != nil {
			return err
		}
		if v != 0 {
			return x.exec(st.Then)
		}
		if st.Else != nil {
			return x.exec(st.Else)
		}
		return nil

	case *iif.For:
		return x.execFor(st)

	case *iif.Break:
		return ctrlBreak

	case *iif.Continue:
		return ctrlContinue

	case *iif.Call:
		return x.call(st)
	}
	return fmt.Errorf("expand: unhandled statement %T", s)
}

func (x *expansion) execFor(st *iif.For) error {
	if st.Init != nil {
		if err := x.execHeaderExpr(st.Init); err != nil {
			return err
		}
	}
	for iters := 0; ; iters++ {
		if iters >= maxLoopIters {
			return iif.Errf(st.Pos, "#for exceeded %d iterations", maxLoopIters)
		}
		if st.Cond != nil {
			v, err := x.evalInt(st.Cond)
			if err != nil {
				return err
			}
			if v == 0 {
				return nil
			}
		}
		err := x.exec(st.Body)
		switch err {
		case nil, ctrlContinue:
		case ctrlBreak:
			return nil
		default:
			return err
		}
		if st.Step != nil {
			if err := x.execHeaderExpr(st.Step); err != nil {
				return err
			}
		}
	}
}

// execHeaderExpr runs a #for init/step expression: either an assignment
// ("i = 0") or a plain C expression evaluated for its side effects
// ("i++").
func (x *expansion) execHeaderExpr(e iif.Expr) error {
	if lhs, rhs, ok := iif.ForAssign(e); ok {
		v, err := x.evalInt(rhs)
		if err != nil {
			return err
		}
		return x.setVar(lhs, v)
	}
	_, err := x.evalInt(e)
	return err
}

func (x *expansion) setVar(r *iif.Ref, v int) error {
	if len(r.Index) != 0 {
		return iif.Errf(r.Pos, "C variable %q cannot be indexed", r.Name)
	}
	if _, ok := x.vars[r.Name]; !ok {
		if _, isParam := x.params[r.Name]; isParam {
			return iif.Errf(r.Pos, "cannot assign to parameter %q", r.Name)
		}
		return iif.Errf(r.Pos, "assignment to undeclared variable %q (declare it with VARIABLE)", r.Name)
	}
	x.vars[r.Name] = v
	return nil
}

func (x *expansion) assign(a *iif.Assign) error {
	if a.CLine {
		if a.Op != iif.OpAssign {
			return iif.Errf(a.Pos, "#c_line supports only plain assignment")
		}
		v, err := x.evalInt(a.RHS)
		if err != nil {
			return err
		}
		return x.setVar(a.LHS, v)
	}
	lhs, err := x.scalarName(a.LHS)
	if err != nil {
		return err
	}
	rhs, err := x.evalBool(a.RHS)
	if err != nil {
		return err
	}
	if a.Op == iif.OpAssign {
		if err := x.net.AddEquation(lhs, rhs); err != nil {
			return iif.Errf(a.Pos, "%v", err)
		}
		return nil
	}
	// Aggregate assignment: fold into any existing definition.
	prev := x.net.Def(lhs)
	if prev == nil {
		if err := x.net.AddEquation(lhs, rhs); err != nil {
			return iif.Errf(a.Pos, "%v", err)
		}
		return nil
	}
	var combined eqn.Node
	switch a.Op {
	case iif.OpAggOr:
		combined = orNode(prev, rhs)
	case iif.OpAggAnd:
		combined = andNode(prev, rhs)
	case iif.OpAggXor:
		combined = eqn.Xor{X: prev, Y: rhs}
	case iif.OpAggXnor:
		combined = eqn.Xnor{X: prev, Y: rhs}
	default:
		return iif.Errf(a.Pos, "unsupported assignment operator %s", a.Op)
	}
	return x.net.ReplaceDef(lhs, combined)
}

// ---- subcomponent calls ----

func (x *expansion) call(c *iif.Call) error {
	pr, err := x.resolveProto(c)
	if err != nil {
		return err
	}
	np := len(pr.params)
	if len(c.Args) < np {
		return iif.Errf(c.Pos, "#%s: needs %d leading parameter argument(s) %v", c.Name, np, pr.params)
	}
	// Evaluate the parameter arguments once, positionally: argument
	// expressions may have side effects (i++), so the width-aware
	// resolution below rebinds these values instead of re-evaluating.
	vals := make([]int, np)
	for i, p := range pr.params {
		v, err := x.evalInt(c.Args[i])
		if err != nil {
			return iif.Errf(c.Pos, "#%s: parameter %q: %v", c.Name, p, err)
		}
		vals[i] = v
	}
	bindings := bindParams(pr.params, vals)
	im, err := x.resolveFinal(c, pr, bindings)
	if err != nil {
		return err
	}
	d, err := x.ex.design(im)
	if err != nil {
		return err
	}
	tmpl, _, err := x.ex.template(d, im, bindings, x.design, x.depth+1)
	if err != nil {
		return err
	}
	need := np + len(tmpl.Inputs) + len(tmpl.Outputs)
	if len(c.Args) != need {
		return iif.Errf(c.Pos, "#%s: got %d argument(s), want %d (%d parameter(s) %v, inputs %v, outputs %v)",
			c.Name, len(c.Args), need, np, d.Params, tmpl.Inputs, tmpl.Outputs)
	}
	// Evaluate every port connection before touching the network or the
	// instances relation, so a failed call leaves no trace.
	inNodes := make([]eqn.Node, len(tmpl.Inputs))
	for i, in := range tmpl.Inputs {
		node, err := x.evalBool(c.Args[np+i])
		if err != nil {
			return iif.Errf(c.Pos, "#%s: input %s: %v", c.Name, in, err)
		}
		inNodes[i] = node
	}
	outNames := make([]string, len(tmpl.Outputs))
	seenOut := make(map[string]bool, len(tmpl.Outputs))
	for j, out := range tmpl.Outputs {
		arg := c.Args[np+len(tmpl.Inputs)+j]
		ref, isRef := arg.(*iif.Ref)
		if !isRef {
			return iif.Errf(c.Pos, "#%s: output %s must connect to a signal, got %s", c.Name, out, iif.ExprString(arg))
		}
		lhs, err := x.scalarName(ref)
		if err != nil {
			return err
		}
		if x.net.Def(lhs) != nil || x.net.IsInput(lhs) || seenOut[lhs] {
			return iif.Errf(ref.Pos, "#%s: output signal %q already driven", c.Name, lhs)
		}
		seenOut[lhs] = true
		outNames[j] = lhs
	}
	if x.deps != nil {
		// Inside a template expansion: only collect the request (plus
		// this call's own transitive subcomponents); the consumer that
		// eventually splices the template records them.
		*x.deps = append(*x.deps, instReq{impl: im.Name, bindings: bindings})
		*x.deps = append(*x.deps, x.ex.netDeps[instKey(im.Name, bindings)]...)
	} else if err := x.ex.recordInstance(x.design, im, bindings); err != nil {
		return iif.Errf(c.Pos, "#%s: %v", c.Name, err)
	}
	prefix := fmt.Sprintf("u%d_", x.nInst)
	x.nInst++
	// Drive the callee's (prefixed) inputs from the caller argument
	// expressions.
	for i, in := range tmpl.Inputs {
		if err := x.net.AddEquation(prefix+in, inNodes[i]); err != nil {
			return iif.Errf(c.Pos, "#%s: %v", c.Name, err)
		}
	}
	// Splice the callee equations, renaming every signal under the
	// instance prefix.
	for _, eq := range tmpl.Eqns {
		if err := x.net.AddEquation(prefix+eq.LHS, eqn.RenameNode(eq.RHS, func(name string) string { return prefix + name })); err != nil {
			return iif.Errf(c.Pos, "#%s: %v", c.Name, err)
		}
	}
	// Alias the callee's outputs onto the caller's output signals.
	for j, out := range tmpl.Outputs {
		if err := x.net.AddEquation(outNames[j], eqn.Var{Name: prefix + out}); err != nil {
			return iif.Errf(c.Pos, "#%s: %v", c.Name, err)
		}
	}
	for _, group := range [][]string{tmpl.Inputs, tmpl.Outputs, tmpl.Internals} {
		for _, n := range group {
			x.net.Internals = append(x.net.Internals, prefix+n)
		}
	}
	return nil
}

// bindParams zips parameter names with positionally evaluated values.
func bindParams(params []string, vals []int) map[string]int {
	bindings := make(map[string]int, len(params))
	for i, p := range params {
		bindings[p] = vals[i]
	}
	return bindings
}

// resolveProto maps a #CALL name to its arity prototype — the database
// entry that fixes the call's parameter list — memoized per name.
// Resolution tries, in order: an implementation of that exact (or
// lower-cased) name, a generator of that exact (or lower-cased) name,
// the best-ranked implementation of a matching component type or
// answering a query by function (the paper's query-by-function path from
// inside the expander), and finally a generator of the matching type or
// function. The prototype only fixes the parameter list; the
// implementation actually spliced is chosen width-aware by resolveFinal
// once the size binding is known.
func (x *expansion) resolveProto(c *iif.Call) (*proto, error) {
	if pr, ok := x.ex.protos[c.Name]; ok {
		return pr, nil
	}
	pr, err := x.resolveProtoUncached(c)
	if err != nil {
		return nil, err
	}
	x.ex.protos[c.Name] = pr
	return pr, nil
}

func (x *expansion) resolveProtoUncached(c *iif.Call) (*proto, error) {
	db := x.ex.db
	for _, name := range []string{c.Name, strings.ToLower(c.Name)} {
		if im, err := db.ImplByName(name); err == nil {
			return &proto{im: &im, exact: true, params: im.Params}, nil
		}
	}
	for _, name := range []string{c.Name, strings.ToLower(c.Name)} {
		if g, err := db.GeneratorByName(name); err == nil {
			return &proto{gen: &g, exact: true, params: g.Params}, nil
		}
	}
	im, ok, err := cheapestWhere(func(visit func(icdb.Candidate) bool) error {
		return x.scanByTypeOrFunction(c, visit)
	}, nil)
	if err != nil {
		return nil, iif.Errf(c.Pos, "#%s: %v", c.Name, err)
	}
	if ok {
		return &proto{im: &im, params: im.Params}, nil
	}
	if gens := x.generatorsFor(c); len(gens) > 0 {
		g := gens[0] // generatorsFor sorts by name; any fixes the arity
		return &proto{gen: &g, params: g.Params}, nil
	}
	return nil, iif.Errf(c.Pos, "#%s: resolves to no implementation, generator, component type, or function in the database", c.Name)
}

// scanByTypeOrFunction streams the stored implementations the call name
// selects: the implementations of a matching GENUS component type, or
// those answering a query by function. Only one of the two paths can
// match (the vocabularies are disjoint).
func (x *expansion) scanByTypeOrFunction(c *iif.Call, visit func(icdb.Candidate) bool, cs ...icdb.Constraint) error {
	db := x.ex.db
	if ct, ok := genus.NormalizeComponentType(c.Name); ok {
		return db.Scan(icdb.Spec{Type: ct, Where: cs}, visit)
	}
	if fn, err := genus.NormalizeFunction(c.Name); err == nil {
		return db.Scan(icdb.Spec{Functions: []genus.Function{fn}, Where: cs}, visit)
	}
	return nil
}

// generatorsFor lists the registered generators the call name selects by
// component type or function, sorted by name.
func (x *expansion) generatorsFor(c *iif.Call) []icdb.Generator {
	db := x.ex.db
	if ct, ok := genus.NormalizeComponentType(c.Name); ok {
		gens, err := db.GeneratorsByComponent(ct)
		if err != nil {
			return nil
		}
		return gens
	}
	if fn, err := genus.NormalizeFunction(c.Name); err == nil {
		all, err := db.Generators()
		if err != nil {
			return nil
		}
		var out []icdb.Generator
		for _, g := range all {
			if g.Executes(fn) {
				out = append(out, g)
			}
		}
		return out
	}
	return nil
}

// resolveFinal picks the implementation a call actually splices, given
// the evaluated parameter bindings. Exact-name prototypes are
// authoritative: a named implementation that cannot stretch to the
// requested size is an error, and a named generator is run at the
// binding point. Query-resolved calls are width-aware in all cases: when
// the bindings carry a size, candidates are filtered to implementations
// covering it (and sharing the prototype's parameter list, so the
// positionally evaluated values rebind safely) *before* ranking, and
// ranked by their cost estimated at that width (see icdb.AtWidth). When
// no stored implementation covers the size, resolution falls through to
// the registered generators and synthesizes one.
func (x *expansion) resolveFinal(c *iif.Call, pr *proto, bindings map[string]int) (icdb.Impl, error) {
	db := x.ex.db
	sz, hasSz := bindings["size"]
	if pr.exact {
		if pr.im != nil {
			if hasSz && (sz < pr.im.WidthMin || sz > pr.im.WidthMax) {
				return icdb.Impl{}, iif.Errf(c.Pos, "#%s: size %d outside implementation %q width range [%d,%d]",
					c.Name, sz, pr.im.Name, pr.im.WidthMin, pr.im.WidthMax)
			}
			return *pr.im, nil
		}
		im, _, err := db.Generate(pr.gen.Name, bindings)
		if err != nil {
			return icdb.Impl{}, iif.Errf(c.Pos, "#%s: %v", c.Name, err)
		}
		return im, nil
	}
	if !hasSz {
		if pr.im != nil {
			return *pr.im, nil
		}
		// A query-resolved generator prototype always declares "size"
		// (RegisterGenerator enforces it), so its bindings carry one.
		return icdb.Impl{}, iif.Errf(c.Pos, "#%s: generator %q needs a size binding", c.Name, pr.gen.Name)
	}
	key := resolveKey{name: c.Name, bindings: icdb.BindingsKey(bindings), ports: len(c.Args) - len(pr.params)}
	if im, ok := x.ex.resolved[key]; ok {
		return im, nil
	}
	// Stored implementations first: filtered to the requested width, the
	// prototype's parameter list, and the call's port shape before
	// ranking, ranked by estimated-at-width cost.
	match := x.shapeMatch(c, pr, bindings)
	im, ok, err := cheapestWhere(func(visit func(icdb.Candidate) bool) error {
		return x.scanByTypeOrFunction(c, visit, icdb.AtWidth(sz))
	}, match)
	if err != nil {
		return icdb.Impl{}, iif.Errf(c.Pos, "#%s: %v", c.Name, err)
	}
	if ok {
		x.ex.resolved[key] = im
		return im, nil
	}
	// Generator fallback: no stored implementation covers the width.
	if im, ok, err := x.generateFor(c, sz, bindings, pr.params); err != nil {
		return icdb.Impl{}, err
	} else if ok {
		return im, nil
	}
	if pr.im != nil {
		return icdb.Impl{}, iif.Errf(c.Pos, "#%s: size %d outside implementation %q width range [%d,%d]",
			c.Name, sz, pr.im.Name, pr.im.WidthMin, pr.im.WidthMax)
	}
	return icdb.Impl{}, iif.Errf(c.Pos, "#%s: no implementation or generator covers size %d with the call's %d port connection(s)",
		c.Name, sz, len(c.Args)-len(pr.params))
}

// shapeMatch builds the pre-ranking candidate filter of a width-aware
// resolution: the candidate must declare exactly the prototype's
// parameter list (the positionally evaluated values rebind safely) and
// its declared ports, flattened at the evaluated bindings, must account
// for the call's remaining arguments — so a structurally incompatible
// implementation is filtered out before ranking, not discovered after an
// expensive template expansion.
func (x *expansion) shapeMatch(c *iif.Call, pr *proto, bindings map[string]int) func(icdb.Candidate) bool {
	want := len(c.Args) - len(pr.params)
	return func(cand icdb.Candidate) bool {
		if !slices.Equal(cand.Impl.Params, pr.params) {
			return false
		}
		d, err := x.ex.design(cand.Impl)
		if err != nil {
			return false
		}
		n, err := portCount(d, bindings)
		return err == nil && n == want
	}
}

// portCount evaluates how many scalar input and output ports design d
// exposes at the given parameter bindings, without expanding its body:
// declaration dimensions are pure expressions over parameters, so the
// flattened port count is their product-sum.
func portCount(d *iif.Design, bindings map[string]int) (int, error) {
	px := &expansion{params: bindings, vars: map[string]int{}}
	n := 0
	for _, decls := range [][]iif.SignalDecl{d.Inputs, d.Outputs} {
		for _, sd := range decls {
			scalars := 1
			for _, de := range sd.Dims {
				v, err := px.evalIntPure(de)
				if err != nil {
					return 0, err
				}
				if v < 1 {
					return 0, iif.Errf(sd.Pos, "signal %s: dimension evaluates to %d", sd.Name, v)
				}
				scalars *= v
			}
			n += scalars
		}
	}
	return n, nil
}

// generateFor runs the cheapest matching generator at the binding point:
// candidates must match the call by type or function, cover the
// requested width, declare exactly the prototype's parameter list
// (positional rebinding safety), and present the call's port shape; they
// are ranked by cost estimated at the binding point. Not memoized in
// resolved — the emitted implementation depends on the full binding set,
// and Generate dedups per point itself.
func (x *expansion) generateFor(c *iif.Call, sz int, bindings map[string]int, params []string) (icdb.Impl, bool, error) {
	db := x.ex.db
	gens := x.generatorsFor(c)
	want := len(c.Args) - len(params)
	var best *icdb.Generator
	var bestCost float64
	for i := range gens {
		g := &gens[i]
		if sz < g.WidthMin || sz > g.WidthMax || !slices.Equal(g.Params, params) {
			continue
		}
		if d, err := iif.Parse(g.Source); err != nil {
			continue
		} else if n, err := portCount(d, bindings); err != nil || n != want {
			continue
		}
		_, _, cost, err := db.GeneratorCost(*g, bindings)
		if err != nil {
			return icdb.Impl{}, false, iif.Errf(c.Pos, "#%s: %v", c.Name, err)
		}
		if best == nil || cost < bestCost {
			best, bestCost = g, cost
		}
	}
	if best == nil {
		return icdb.Impl{}, false, nil
	}
	im, _, err := db.Generate(best.Name, bindings)
	if err != nil {
		return icdb.Impl{}, false, iif.Errf(c.Pos, "#%s: %v", c.Name, err)
	}
	return im, true, nil
}

// cheapestWhere folds a streamed query down to its single best-ranked
// candidate (lowest cost, name as tie-break — the same order the ranked
// queries return) without materializing the result set: resolution only
// ever needs the winner, so the candidates are consumed as they stream.
// A non-nil match additionally filters candidates before ranking. Scan
// errors propagate — under a width evaluation point a broken estimator
// expression fails the scan per row, and swallowing that would silently
// demote the catalog's intended candidate to a generator fallback.
func cheapestWhere(scan func(visit func(icdb.Candidate) bool) error, match func(icdb.Candidate) bool) (icdb.Impl, bool, error) {
	var best icdb.Impl
	var bestCost float64
	found := false
	err := scan(func(cand icdb.Candidate) bool {
		if match != nil && !match(cand) {
			return true
		}
		if !found || cand.Cost < bestCost ||
			(cand.Cost == bestCost && cand.Impl.Name < best.Name) {
			// Clone: the streamed Impl shares the query cache's slices
			// and must not be retained past the visit.
			best, bestCost, found = cand.Impl.Clone(), cand.Cost, true
		}
		return true
	})
	if err != nil {
		return icdb.Impl{}, false, err
	}
	return best, found, nil
}
