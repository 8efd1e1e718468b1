// Command icdbq is a small front-end over the ICDB engine: it answers
// query-by-function requests against the builtin component database,
// executes textual CQL commands (one-shot, as an interactive REPL, or
// against a remote icdbd server), runs component generators and cost
// estimators, and expands IIF designs to flat equation networks.
//
// Usage:
//
//	icdbq impls
//	icdbq query <function>... [-where <expr>]
//	icdbq cql "<command>" | icdbq cql -i | icdbq cql -remote <addr> "<command>"
//	icdbq connect [-addr 127.0.0.1:7390] [-secret token] [-retries 3] [-c "<command>"]
//	icdbq expand <design.iif|-> [param=value...]
//	icdbq generate <generator|component> param=value...
//	icdbq estimate <impl> width=<bits> [area|delay|cost]
//	icdbq bench [-sizes 1000,10000] [-out BENCH_PR10.json] [-benchtime 300ms] [-guard] [-conns 200] [-chaos] [-jwrite 10000] [-jopen 100000] [-jrecords 1000] [-explore] [-openlat 100000,1000000]
//
// The usage lines above are generated from the command table in
// usage.go and verified by TestDocCommentMatchesUsage; edit them there.
package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"icdb/internal/cql"
	"icdb/internal/expand"
	"icdb/internal/genus"
	"icdb/internal/icdb"
	"icdb/internal/iif"
	"icdb/internal/relstore"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "icdbq: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("%s", usageText())
	}
	switch {
	case args[0] == "bench":
		// Benchmarks build their own catalogs; no seeded DB needed.
		return runBench(args[1:])
	case args[0] == "_openprobe":
		// Internal: one open-latency measurement in a fresh process,
		// exec'd by "bench" (see openbench.go). Not in the usage table.
		return runOpenProbe(args[1:])
	case args[0] == "connect":
		// Client mode talks to an icdbd server; no local DB at all.
		return runConnect(args[1:])
	case args[0] == "cql" && len(args) > 1 && args[1] == "-remote":
		return runRemoteCQL(args[2:])
	}
	db, err := icdb.Open(relstore.New())
	if err != nil {
		return err
	}
	switch args[0] {
	case "impls":
		impls, err := db.Impls()
		if err != nil {
			return err
		}
		for _, im := range impls {
			fmt.Printf("%-12s %-18s %-12s width %d..%d area %g delay %g  %s\n",
				im.Name, im.Component, im.Style, im.WidthMin, im.WidthMax,
				im.Area, im.Delay, genus.FunctionSetKey(im.Functions))
		}
		return nil

	case "query":
		return runQuery(db, args[1:])

	case "cql":
		return runCQL(db, args[1:])

	case "expand":
		return runExpand(db, args[1:])

	case "generate", "estimate":
		// Both verbs are CQL commands; the subcommands are sugar that
		// forwards the argument vector as one command line.
		env := &cql.Env{DB: db, Out: os.Stdout}
		return env.Exec(strings.Join(args, " "))
	}
	return fmt.Errorf("unknown command %q (want %s)", args[0], commandNames())
}

func runQuery(db *icdb.DB, args []string) error {
	fns := []genus.Function{} // non-nil: no functions is an error, not a catalog walk
	var cs []icdb.Constraint
	for i := 0; i < len(args); i++ {
		if args[i] == "-where" {
			if i+1 >= len(args) {
				return fmt.Errorf("-where needs an expression")
			}
			c, err := icdb.Where(args[i+1])
			if err != nil {
				return err
			}
			cs = append(cs, c)
			i++
			continue
		}
		fns = append(fns, genus.Function(args[i]))
	}
	cands, err := db.Query(icdb.Spec{Functions: fns, Where: cs})
	if err != nil {
		return err
	}
	if len(cands) == 0 {
		fmt.Println("no matching implementations")
		return nil
	}
	for i, c := range cands {
		fmt.Printf("%d. %-12s %-18s cost %g\n", i+1, c.Impl.Name, c.Impl.Component, c.Cost)
	}
	return nil
}

func runExpand(db *icdb.DB, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("expand needs a design file (or - for stdin)")
	}
	var src []byte
	var err error
	if args[0] == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(args[0])
	}
	if err != nil {
		return err
	}
	params := make(map[string]int)
	for _, a := range args[1:] {
		name, val, ok := strings.Cut(a, "=")
		if !ok {
			return fmt.Errorf("bad parameter %q (want name=value)", a)
		}
		v, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("bad parameter %q: %v", a, err)
		}
		params[name] = v
	}
	d, err := iif.Parse(string(src))
	if err != nil {
		return err
	}
	net, err := expand.New(db).Expand(d, params)
	if err != nil {
		return err
	}
	if err := net.Validate(); err != nil {
		return fmt.Errorf("expanded network is malformed: %w", err)
	}
	if _, err := net.TopoOrder(); err != nil {
		return err
	}
	fmt.Print(net.Format())
	insts, err := db.Instances()
	if err != nil {
		return err
	}
	for _, in := range insts {
		fmt.Fprintf(os.Stderr, "instance %d: %s (%s) used %dx\n",
			in.ID, in.Impl, icdb.BindingsKey(in.Bindings), in.Uses)
	}
	return nil
}
