package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the smoke test checks against.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// traceLayers are the span names the traced run must emit, one or more
// per layer of the per-layer metric table.
var traceLayers = []string{
	"wire.exec", "wire.server", // wire
	"cql.parse", "cql.compile", // cql
	"icdb.find", "icdb.write", "icdb.open", // icdb
	"iif.parse", "expand.expand", "eqn.check", "eqn.format", // expand/iif/eqn
	"encode.rows",                           // encode
	"relstore.open", "relstore.first_query", // relstore open and lazy
	"journal.append", "journal.fsync", // journal
}

// TestSmoke runs every workload at toy scale, untraced and traced, and
// checks that every named metric is reported with its unit, that no
// command failed, and that the traced run emits spans for every layer.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 7, seconds: 0.5, trace: traced, scale: 0.01, work: work, buildInProcess: true}
			res, err := bench(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d of %d", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.Name, traced, m.Name, got, m.Unit)
				}
			}
			if traced {
				checkTraceLayers(t, filepath.Join(work, "traces", w.Name+"-seed7.json"))
			}
		}
	}
}

func checkTraceLayers(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct{ Spans []span }
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range tr.Spans {
		seen[s.Name] = true
	}
	var missing []string
	for _, l := range traceLayers {
		if !seen[l] {
			missing = append(missing, l)
		}
	}
	if !seen["icdb.pareto"] && !seen["icdb.pareto_after_write"] {
		missing = append(missing, "icdb.pareto")
	}
	if len(missing) > 0 {
		t.Errorf("%s: no spans for %s", path, strings.Join(missing, ", "))
	}
}
