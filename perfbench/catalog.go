package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"icdb/internal/benchgen"
	"icdb/internal/genus"
	"icdb/internal/icdb"
	"icdb/internal/relstore"
)

// manifest describes one generated catalog: what the command streams
// draw from. It is saved next to the cached snapshot.
type manifest struct {
	Workload        string   `json:"workload"`
	Seed            uint64   `json:"seed"`
	Scale           float64  `json:"scale"`
	SnapshotVersion int      `json:"snapshot_version"`
	SnapshotBytes   int64    `json:"snapshot_bytes"`
	Rows            int      `json:"rows"`
	BuildSeconds    float64  `json:"build_seconds"`
	QueryFns        []string `json:"query_functions"`
	GenFn           string   `json:"generator_function"`
	GenComponent    string   `json:"generator_component"`
	Generators      []string `json:"generators"`
	ParetoTypes     []string `json:"pareto_types,omitempty"`
	Designs         []design `json:"designs"`
	WALTail         int      `json:"wal_tail"`

	// dir is the cache directory holding catalog.snap (and
	// catalog.snap.wal when WALTail > 0).
	dir string
	// Oracle holds the exact answer of every find a synth_read stream
	// can draw, computed at setup by a full scan; nil elsewhere.
	Oracle map[oracleKey][]oracleRow `json:"-"`
}

// design is one IIF design the expand commands read.
type design struct {
	File string `json:"file"`
	Text string `json:"text"`
}

const (
	snapName = "catalog.snap"
	numGens  = 4
	// frontierAnchors is the number of mutually non-dominated points
	// every generator's pre-recorded cloud is built around.
	frontierAnchors = 40
)

// catalogDir is the cache directory of (w, seed, scale) under root.
func catalogDir(root string, w workload, seed uint64, scale float64) string {
	return filepath.Join(root, "catalogs", fmt.Sprintf("%s-seed%d-x%g", w.name, seed, scale))
}

// readCatalog loads a cached catalog's manifest and oracle.
func readCatalog(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	m := &manifest{dir: dir}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("catalog cache %s: %w", dir, err)
	}
	data, err = os.ReadFile(filepath.Join(dir, "oracle.json"))
	if errors.Is(err, os.ErrNotExist) {
		return m, nil
	} else if err != nil {
		return nil, err
	}
	var entries []oracleEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("catalog cache %s: %w", dir, err)
	}
	m.Oracle = make(map[oracleKey][]oracleRow, len(entries))
	for _, e := range entries {
		m.Oracle[e.Key] = e.Rows
	}
	return m, nil
}

// oracleEntry is one cached oracle answer.
type oracleEntry struct {
	Key  oracleKey
	Rows []oracleRow
}

// buildCatalogDir generates the catalog of (w, seed, scale) — and, for
// workloads checked exactly, its oracle — into its cache directory.
func buildCatalogDir(root string, w workload, seed uint64, scale float64) error {
	dir := catalogDir(root, w, seed, scale)
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	start := time.Now()
	m, err := buildCatalog(tmp, w.scaled(scale), seed)
	if err != nil {
		os.RemoveAll(tmp)
		return err
	}
	m.Scale = scale
	m.dir = tmp
	if w.exact {
		if err := buildOracle(m); err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		entries := make([]oracleEntry, 0, len(m.Oracle))
		for k, rows := range m.Oracle {
			entries = append(entries, oracleEntry{Key: k, Rows: rows})
		}
		if err := writeJSON(filepath.Join(tmp, "oracle.json"), entries); err != nil {
			return err
		}
	}
	m.BuildSeconds = time.Since(start).Seconds()
	if err := writeJSON(filepath.Join(tmp, "manifest.json"), m); err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.Rename(tmp, dir)
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// buildCatalog generates w's catalog for seed into dir through the
// public icdb/relstore API.
func buildCatalog(dir string, w workload, seed uint64) (*manifest, error) {
	rng := rand.New(rand.NewPCG(seed, 1))
	m := &manifest{Workload: w.name, Seed: seed}

	store := relstore.New()
	if w.rawImpls > 0 {
		// benchgen's balanced open-latency shape: raw implementation
		// rows with estimator pairs beside raw exploration rows.
		var err error
		store, err = benchgen.BuildCatalog(benchgen.CatalogSpec{
			Impls: w.rawImpls, Expls: w.rawExpls, Estimators: true, Seed: int(seed % (1 << 30)),
		})
		if err != nil {
			return nil, err
		}
	}
	db, err := icdb.Open(store)
	if err != nil {
		return nil, err
	}

	// Synthetic implementations, registered with IIF source and the
	// width-scaling estimator pair.
	count := map[genus.Function]int{}
	for i := range w.impls {
		im := synthImpl(rng, i)
		if err := db.RegisterImpl(im); err != nil {
			return nil, fmt.Errorf("impl %d: %w", i, err)
		}
		if err := db.RegisterEstimator(im.Name, "area", "area * width"); err != nil {
			return nil, err
		}
		if err := db.RegisterEstimator(im.Name, "delay", "delay"); err != nil {
			return nil, err
		}
		for _, f := range im.Functions {
			count[f]++
		}
	}

	// The functions with the most candidates, by rank: the generators
	// execute the first, finds and designs use the next eight. The rank
	// is by expected share — synthetic implementations and benchgen's
	// raw rows both take a component type's function list up to a
	// uniform prefix length — so every seed queries the same functions,
	// with the same work per query; the seed varies widths, order and
	// attributes.
	for _, f := range rankedFunctions()[:9] {
		if count[f] < min(10, w.impls/100) {
			return nil, fmt.Errorf("function %s has only %d candidates", f, count[f])
		}
		m.QueryFns = append(m.QueryFns, string(f))
	}
	m.GenFn, m.QueryFns = m.QueryFns[0], m.QueryFns[1:]

	if err := registerGenerators(db, m, rng); err != nil {
		return nil, err
	}
	if err := recordCloud(db, m, rng, w.cloud); err != nil {
		return nil, err
	}
	if w.rawExpls > 0 {
		// Component types whose design space holds only benchgen's raw
		// points: the generators' writes never reshape their frontiers.
		for _, ct := range genus.AllComponentTypes() {
			if string(ct) != m.GenComponent {
				m.ParetoTypes = append(m.ParetoTypes, string(ct))
			}
		}
	}
	m.Designs = makeDesigns(rng, m.QueryFns)

	path := filepath.Join(dir, snapName)
	if err := store.SaveSnapshot(path); err != nil {
		return nil, err
	}
	for _, t := range store.Tables() {
		n, _ := store.Count(t, nil)
		m.Rows += n
	}
	if w.walTail > 0 {
		if err := writeWALTail(path, w, seed); err != nil {
			return nil, err
		}
		m.WALTail = w.walTail
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	m.SnapshotBytes = st.Size()
	if m.SnapshotVersion, err = snapshotVersion(path); err != nil {
		return nil, err
	}
	return m, nil
}

// rankedFunctions orders the GENUS functions by their expected share of
// implementations: a type's k-th function (0-based) of n is executed by
// (n-k)/n of that type's implementations.
func rankedFunctions() []genus.Function {
	share := map[genus.Function]float64{}
	for _, ct := range genus.AllComponentTypes() {
		fns := genus.Functions(ct)
		for k, f := range fns {
			share[f] += float64(len(fns)-k) / float64(len(fns))
		}
	}
	fns := genus.AllFunctions()
	sort.SliceStable(fns, func(i, j int) bool { return share[fns[i]] > share[fns[j]] })
	return fns
}

// implSource is the IIF source of every synthetic implementation: a
// bitwise binary operator over the conventional "size" width parameter.
const implSource = `NAME: %s;
PARAMETER: size;
VARIABLE: i;
INORDER: A[size], B[size];
OUTORDER: O[size];
{
  #for(i = 0; i < size; i++)
    O[i] = A[i] * B[i];
}
`

// synthImpl draws the i-th synthetic implementation.
func synthImpl(rng *rand.Rand, i int) icdb.Impl {
	cts := genus.AllComponentTypes()
	ct := cts[rng.IntN(len(cts))]
	fns := genus.Functions(ct)
	name := fmt.Sprintf("syn_%06d", i)
	return icdb.Impl{
		Name:      name,
		Component: ct,
		Style:     "synthetic",
		Functions: fns[:1+rng.IntN(len(fns))],
		WidthMin:  1 + rng.IntN(4),
		WidthMax:  8 + rng.IntN(120),
		Stages:    rng.IntN(4),
		Area:      float64(1 + rng.IntN(97)),
		Delay:     float64(1 + rng.IntN(53)),
		Params:    []string{"size"},
		Source:    fmt.Sprintf(implSource, name),
	}
}

// genSource is the IIF source of the synthetic generators: the same
// operator with a second parameter k, so every k is a fresh binding.
const genSource = `NAME: %s;
PARAMETER: k, size;
VARIABLE: i;
INORDER: A[size], B[size];
OUTORDER: O[size];
{
  #for(i = 0; i < size; i++)
    O[i] = A[i] * B[i];
}
`

// registerGenerators registers the multi-parameter generators the
// explore commands write through. Their estimated area is at
// least 2000, above every pre-recorded frontier point, so fresh points
// never shrink a frontier below the pareto limit.
func registerGenerators(db *icdb.DB, m *manifest, rng *rand.Rand) error {
	var ct genus.ComponentType
	for _, c := range genus.AllComponentTypes() {
		if slices.Contains(genus.Functions(c), genus.Function(m.GenFn)) {
			ct = c
			break
		}
	}
	m.GenComponent = string(ct)
	for g := range numGens {
		name := fmt.Sprintf("dsegen_%d", g)
		err := db.RegisterGenerator(icdb.Generator{
			Name:      name,
			Component: ct,
			Style:     "synthetic",
			Functions: []genus.Function{genus.Function(m.GenFn)},
			WidthMin:  1,
			WidthMax:  genWidthMax,
			Stages:    rng.IntN(3),
			Params:    []string{"k", "size"},
			// Width-only estimators: Generate copies them onto the
			// implementation it registers, where k is not an attribute.
			AreaExpr:  fmt.Sprintf("%d * width", 2000+rng.IntN(100)),
			DelayExpr: fmt.Sprintf("1 + (width * %d) %% 50", 3+rng.IntN(7)),
			Source:    fmt.Sprintf(genSource, name),
		})
		if err != nil {
			return err
		}
		m.Generators = append(m.Generators, name)
	}
	return nil
}

// recordCloud pre-records n design points spread over the generators:
// per generator, frontierAnchors mutually non-dominated anchors on an
// area/delay trade-off line, and points each dominated by one anchor.
func recordCloud(db *icdb.DB, m *manifest, rng *rand.Rand, n int) error {
	for i := range n {
		g := i % numGens
		a := (i / numGens) % frontierAnchors
		area := float64(10 + 25*a + g)
		delay := float64(1010 - 25*a + g)
		if i >= numGens*frontierAnchors {
			area += float64(1 + rng.IntN(500))
			delay += float64(rng.IntN(500))
		}
		w := 1 + rng.IntN(genWidthMax)
		err := db.RecordExploration(icdb.Exploration{
			Generator: m.Generators[g],
			Bindings:  icdb.BindingsKey(map[string]int{"k": i, "size": w}),
			Component: genus.ComponentType(m.GenComponent),
			Width:     w,
			Area:      area,
			Delay:     delay,
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// makeDesigns draws three designs of two #calls each, naming seeded
// GENUS functions, so expand resolves them by a width-aware query
// through the DB.
func makeDesigns(rng *rand.Rand, fns []string) []design {
	// Every call costs expand one journaled instance bump; two keep an
	// expand's latency clear of the disk's occasional slow fsync, and of
	// most queueing behind another session's writes.
	widths := []int{12, 16}
	maxW := slices.Max(widths)
	var out []design
	for d := range 3 {
		name := fmt.Sprintf("d%d", d)
		var b strings.Builder
		fmt.Fprintf(&b, "NAME: %s;\nINORDER: x[%d], y[%d];\nOUTORDER: ", name, maxW, maxW)
		for c, w := range widths {
			if c > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "p%d[%d]", c, w)
		}
		b.WriteString(";\n{\n")
		for c, w := range widths {
			args := []string{fmt.Sprint(w)}
			for _, v := range []string{"x", "y"} {
				for i := range w {
					args = append(args, fmt.Sprintf("%s[%d]", v, i))
				}
			}
			for i := range w {
				args = append(args, fmt.Sprintf("p%d[%d]", c, i))
			}
			fmt.Fprintf(&b, "  #%s(%s);\n", fns[rng.IntN(len(fns))], strings.Join(args, ", "))
		}
		b.WriteString("}\n")
		out = append(out, design{File: name + ".iif", Text: b.String()})
	}
	return out
}

// writeWALTail appends w.walTail uncovered journal records to the
// catalog, spread across the implementations, estimators and
// explorations relations, without compacting them into the snapshot.
func writeWALTail(path string, w workload, seed uint64) error {
	d, err := relstore.OpenDurable(path, relstore.DurableOptions{Fsync: relstore.FsyncOff, CompactAt: -1})
	if err != nil {
		return err
	}
	for i := range w.walTail {
		var table string
		var row relstore.Row
		switch i % 4 {
		case 0:
			table, row = icdb.TableImplementations, benchgen.RawImplRow(w.rawImpls+i)
		case 1:
			table, row = icdb.TableEstimators, relstore.Row{"impl": benchgen.NameOf(w.rawImpls + i - 1), "attr": "area", "expr": "area * width"}
		default:
			table, row = icdb.TableExplorations, benchgen.ExplorationRowAt(int(seed%(1<<30)), w.rawExpls+i)
		}
		if err := d.Upsert(table, row); err != nil {
			d.Close()
			return err
		}
	}
	return d.Close()
}

// snapshotVersion reads the format version from a snapshot header
// (magic, then a little-endian u32).
func snapshotVersion(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var hdr [12]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint32(hdr[8:])), nil
}

// oracleKey identifies one synth_read find.
type oracleKey struct {
	Fn    string
	Width int
	Cond  cond
}

// oracleRow is one expected ranked row.
type oracleRow struct {
	Name string
	Cost float64
}

// buildOracle computes the exact top-k answer of every find a
// synth_read stream can draw, from benchgen's full-scan reference path
// over an eager in-memory open of the catalog, evaluating the catalog's
// estimator forms itself.
func buildOracle(m *manifest) error {
	store, err := relstore.OpenSnapshot(filepath.Join(m.dir, snapName), relstore.SnapshotOptions{})
	if err != nil {
		return err
	}
	db, err := icdb.Open(store)
	if err != nil {
		return err
	}
	wa, wd := db.RankWeights()
	m.Oracle = map[oracleKey][]oracleRow{}
	type cand struct {
		name          string
		wmin, wmax    int
		area, delay   float64
		areaW, delayW bool // estimator scales with width
	}
	for _, fn := range m.QueryFns {
		full, err := benchgen.FullScanQueryByFunction(db, genus.Function(fn))
		if err != nil {
			return err
		}
		cands := make([]cand, 0, len(full))
		for _, c := range full {
			ests, err := db.Estimators(c.Impl.Name)
			if err != nil {
				return err
			}
			k := cand{name: c.Impl.Name, wmin: c.Impl.WidthMin, wmax: c.Impl.WidthMax, area: c.Impl.Area, delay: c.Impl.Delay}
			switch ests["area"] {
			case "", "area":
			case "area * width":
				k.areaW = true
			default:
				return fmt.Errorf("oracle: %s: unsupported area estimator %q", c.Impl.Name, ests["area"])
			}
			switch ests["delay"] {
			case "", "delay":
			case "delay * width":
				k.delayW = true
			default:
				return fmt.Errorf("oracle: %s: unsupported delay estimator %q", c.Impl.Name, ests["delay"])
			}
			cands = append(cands, k)
		}
		for width := 1; width <= findWidthMax; width++ {
			for _, cd := range []cond{condNone, condDelay, condArea} {
				var rows []oracleRow
				for _, c := range cands {
					if width < c.wmin || width > c.wmax {
						continue
					}
					area, delay := c.area, c.delay
					if c.areaW {
						area *= float64(width)
					}
					if c.delayW {
						delay *= float64(width)
					}
					if !cd.accept(area, delay) {
						continue
					}
					rows = append(rows, oracleRow{Name: c.name, Cost: area*wa + delay*wd})
				}
				sort.Slice(rows, func(i, j int) bool {
					if rows[i].Cost != rows[j].Cost {
						return rows[i].Cost < rows[j].Cost
					}
					return rows[i].Name < rows[j].Name
				})
				m.Oracle[oracleKey{Fn: fn, Width: width, Cond: cd}] = rows[:min(len(rows), findLimit)]
			}
		}
	}
	return nil
}
