package main

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"icdb/internal/relstore"
)

// kind classifies a command for latency accounting. Every workload
// issues every kind, so every end-to-end latency metric is defined on
// every workload.
type kind int

const (
	kindFind    kind = iota // find component ... at width W order by cost limit 5
	kindPareto              // find pareto of generator G (or of type T) limit 10
	kindExpand              // expand <design>, #calls resolved through the DB
	kindExplore             // explore G width lo..hi k=<fresh>
	numKinds
)

var kindNames = [numKinds]string{"find", "pareto", "expand", "explore"}

func (k kind) String() string { return kindNames[k] }

// isWrite reports whether the kind is an effective, journaled write of
// the write_* metrics.
func (k kind) isWrite() bool { return k == kindExplore }

// sessions is the number of client sessions driving the server in a
// closed loop: the reference box's core count. It is fixed, not a knob.
const sessions = 2

// workload is one traffic shape over one catalog shape. The comment on
// each entry of workloads records why it exists.
type workload struct {
	name string
	// catalog sizes at scale 1.
	impls    int // synthetic implementations registered with IIF source and estimators
	rawImpls int // raw implementation rows (with estimator pairs) in benchgen's balanced shape
	rawExpls int // raw exploration rows in benchgen's balanced shape
	cloud    int // pre-recorded exploration points under the synthetic generators
	walTail  int // uncovered journal records written after the snapshot
	mode     relstore.OpenMode
	boots    int // boots per run; setup_s is their median
	// cycles is each session's fixed cycle of command kinds; the seed
	// draws every command's operands. Fixed cycles keep each kind's
	// share, and what precedes it, the same for every seed.
	cycles   [sessions][]kind
	exact    bool // finds are checked against the full-scan oracle
	benchgen bool // pareto queries span a component type of benchgen's raw explorations
}

// workloads is the benchmark's workload table.
var workloads = []workload{
	// synth_read: the synthesis tool's read path at catalog scale. Ranked
	// width-aware finds over 100k implementations with estimators, and
	// expansions whose #calls resolve through the DB, exercise CQL
	// parse/compile, the planner's posting lists, icdb rank and estimator
	// evaluation, expand, and row encode/flush. Pareto queries and
	// explore sweeps (needed so every end-to-end metric exists) hit a
	// small exploration relation, so no large table is cloned and no big
	// frontier is swept; the journal sees mostly expand's instance bumps.
	// One session issues every writing kind, so the two never queue on
	// the journal behind each other, and asks a frontier right before
	// each explore, so every explore follows a reader pin; the other
	// runs finds.
	{
		name: "synth_read", impls: 100_000, cloud: 2_000,
		mode: relstore.OpenLazy, boots: 3, exact: true,
		cycles: [sessions][]kind{
			{kindFind, kindExpand, kindPareto, kindExplore},
			{kindFind},
		},
	},
	// cold_recover: boot of a 1M-row catalog with an uncovered journal
	// tail, opened eagerly so the tail replays at open. Snapshot decode,
	// the eager worker pool and journal replay dominate setup_s — the
	// same snapshot layer synth_read opens lazily. A short loop then
	// touches every table: an explorer session asks a component type's
	// frontier and then explores a fresh point, so every explore clones
	// the pinned 250k-row explorations relation (the copy-on-write
	// write-after-read cliff at scale); a tool session runs finds over
	// implementations and estimators and expands, whose instance bumps
	// queue behind those clones.
	{
		name: "cold_recover", impls: 1_000, rawImpls: 250_000, rawExpls: 250_000, walTail: 4_000,
		mode: relstore.OpenEager, boots: 3, benchgen: true,
		cycles: [sessions][]kind{
			{kindPareto, kindExplore},
			{kindFind, kindFind, kindExpand},
		},
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have synth_read, cold_recover)", name)
}

// scaled returns w with every catalog size multiplied by scale (at
// least 1 row where the size is non-zero); the smoke test runs at toy
// scale.
func (w workload) scaled(scale float64) workload {
	sc := func(n int) int {
		if n == 0 {
			return 0
		}
		return max(1, int(float64(n)*scale))
	}
	w.impls, w.rawImpls, w.rawExpls, w.cloud, w.walTail = sc(w.impls), sc(w.rawImpls), sc(w.rawExpls), sc(w.cloud), sc(w.walTail)
	// The toy catalogs still need enough candidates for top-5 answers,
	// and every pre-recorded frontier its anchors.
	w.impls = max(w.impls, 300)
	if w.cloud > 0 {
		w.cloud = max(w.cloud, 2*numGens*frontierAnchors)
	}
	return w
}

// command is one CQL command of a session's stream.
type command struct {
	kind kind
	text string
	// want is what the reply is checked against (see check.go).
	want want
}

// want carries the command's expected reply shape.
type want struct {
	limit  int       // find/pareto: at most this many ranked rows
	query  oracleKey // synth_read find: exact oracle answer
	exact  bool
	design string // expand: design file name
	points int    // explore: design points swept
}

// streamGen produces one session's command stream. It is deterministic
// in (seed, session), and unbounded: a session draws commands until the
// measured phase ends.
type streamGen struct {
	w     workload
	cat   *manifest
	rng   *rand.Rand
	cycle []kind
	pos   int
	next  int // fresh binding counter
	base  int
}

func newStream(w workload, cat *manifest, seed uint64, session int) *streamGen {
	g := &streamGen{w: w, cat: cat, rng: rand.New(rand.NewPCG(seed, uint64(1000+session))), cycle: w.cycles[session]}
	// Start each session at a seeded point of its cycle.
	g.pos = g.rng.IntN(len(g.cycle))
	// Fresh bindings never collide with the catalog's pre-recorded
	// points (k < cloud size) or with the other session's.
	g.base = 10_000_000 * (session + 1)
	return g
}

// nextCommand draws the next command.
func (g *streamGen) nextCommand() command {
	k := g.cycle[g.pos%len(g.cycle)]
	g.pos++
	return g.ofKind(k)
}

func (g *streamGen) fresh() int {
	g.next++
	return g.base + g.next
}

// ofKind draws a command of kind k.
func (g *streamGen) ofKind(k kind) command {
	c := g.cat
	switch k {
	case kindFind:
		return g.find()
	case kindPareto:
		scope := "generator " + c.Generators[g.rng.IntN(len(c.Generators))]
		if g.w.benchgen {
			scope = "type " + c.ParetoTypes[g.rng.IntN(len(c.ParetoTypes))]
		}
		return command{kind: k, text: "find pareto of " + scope + " limit 10", want: want{limit: 10}}
	case kindExpand:
		d := c.Designs[g.rng.IntN(len(c.Designs))]
		return command{kind: k, text: "expand " + d.File, want: want{design: d.File}}
	case kindExplore:
		gen := c.Generators[g.rng.IntN(len(c.Generators))]
		lo := 1 + g.rng.IntN(genWidthMax-explorePoints)
		return command{kind: k,
			text: fmt.Sprintf("explore %s width %d..%d k=%d", gen, lo, lo+explorePoints-1, g.fresh()),
			want: want{points: explorePoints}}
	}
	panic(fmt.Sprintf("unknown command kind %d", k))
}

// find draws a ranked, width-aware find over the catalog's query
// functions.
func (g *streamGen) find() command {
	c := g.cat
	fn := c.QueryFns[g.rng.IntN(len(c.QueryFns))]
	key := oracleKey{Fn: fn, Width: 1 + g.rng.IntN(findWidthMax)}
	switch g.rng.IntN(5) {
	case 0:
		key.Cond = condDelay
	case 1:
		key.Cond = condArea
	}
	text := "find component executing " + fn
	if key.Cond != condNone {
		text += " with " + key.Cond.clause()
	}
	text += fmt.Sprintf(" at width %d order by cost limit %d", key.Width, findLimit)
	return command{kind: kindFind, text: text, want: want{limit: findLimit, query: key, exact: c.Oracle != nil}}
}

// firstCommand is the boot's first query (the end of setup_s): a fixed
// ranked find, which on a lazy open hydrates the implementation and
// estimator relations and builds icdb's derived caches.
func firstCommand(c *manifest) command {
	key := oracleKey{Fn: c.QueryFns[0], Width: 16}
	return command{kind: kindFind,
		text: fmt.Sprintf("find component executing %s at width 16 order by cost limit %d", key.Fn, findLimit),
		want: want{limit: findLimit, query: key, exact: c.Oracle != nil}}
}

// warmup returns the commands a session runs before the measured phase:
// two commands of every kind in its cycle and, if it expands, each
// design once (the session's expander resolves and caches its #calls).
func (g *streamGen) warmup() []command {
	var out []command
	for k := range numKinds {
		if !slices.Contains(g.cycle, k) {
			continue
		}
		if k == kindExpand {
			for _, d := range g.cat.Designs {
				out = append(out, command{kind: kindExpand, text: "expand " + d.File, want: want{design: d.File}})
			}
		}
		out = append(out, g.ofKind(k), g.ofKind(k))
	}
	return out
}

const (
	findLimit     = 5
	findWidthMax  = 64
	explorePoints = 2
	genWidthMax   = 128
)

// cond is the optional constraint of a find.
type cond int

const (
	condNone  cond = iota
	condDelay      // with delay <= 25
	condArea       // with area <= 1500
)

func (c cond) clause() string {
	switch c {
	case condDelay:
		return "delay <= 25"
	case condArea:
		return "area <= 1500"
	}
	return ""
}

// accept applies the constraint to estimator values at the query width.
func (c cond) accept(area, delay float64) bool {
	switch c {
	case condDelay:
		return delay <= 25
	case condArea:
		return area <= 1500
	}
	return true
}
