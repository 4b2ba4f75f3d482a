package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/numa"
)

// tinyConfig keeps experiment smoke tests fast.
func tinyConfig(buf *bytes.Buffer) Config {
	return Config{
		Scale:      0.05,
		Seed:       7,
		Partitions: 48,
		Topology:   numa.Topology{Sockets: 4, ThreadsPerSocket: 2},
		Out:        buf,
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := Run("nope", Config{}); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestExperimentsList(t *testing.T) {
	if len(Experiments()) != 14 {
		t.Fatalf("experiment count = %d", len(Experiments()))
	}
}

func TestGrowSmoke(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.Quick = true
	cfg.JSONDir = t.TempDir()
	if err := Run("grow", cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"vertex arrivals", "patched", "rebuild", "maintained", "work ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	assertConstructionEdges(t, readReport(t, cfg.JSONDir, "grow"), 4997400, 2186743, 2229588, map[string]float64{
		"patched_engine_patches":          23,
		"patched_partitions_rebuilt":      944,
		"patched_partitions_reused":       528,
		"patched_partitions_relabeled":    0,
		"patched_relabeled_edges":         0,
		"maintained_engine_patches":       23,
		"maintained_partitions_rebuilt":   996,
		"maintained_partitions_reused":    406,
		"maintained_partitions_relabeled": 70,
		"maintained_relabeled_edges":      613,
	})
}

// readReport parses the BENCH_<exp>.json an experiment wrote into dir.
func readReport(t *testing.T, dir, exp string) Report {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_"+exp+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("BENCH_%s.json invalid: %v", exp, err)
	}
	return r
}

// assertConstructionEdges pins a quick-mode report's modeled construction
// edges, and the GraphGrind patch accounting of its patched and maintained
// rows, exactly. The modeled plane is deterministic, so a simplification of
// the view's build paths must leave these unchanged; the baseline's
// tolerance alone would let them drift.
func assertConstructionEdges(t *testing.T, r Report, rebuild, patched, maintained float64, accounting map[string]float64) {
	t.Helper()
	want := map[string]float64{
		"rebuild_construction_edges":    rebuild,
		"patched_construction_edges":    patched,
		"maintained_construction_edges": maintained,
	}
	for name, v := range accounting {
		want[name] = v
	}
	for name, v := range want {
		if got, ok := r.Modeled[name]; !ok || got != v {
			t.Errorf("%s %s = %v, want %v", r.Experiment, name, got, v)
		}
	}
}

// TestRefineSmoke checks that quick mode produces a parseable
// BENCH_refine.json carrying both speedup gates and populated refined +
// scratch series for both gated algorithms at the smallest batch size. The
// speedups themselves are wall-clock ratios that a loaded parallel test run
// can push under 1×, so a gate miss (errGate) is tolerated here; the
// CI bench-smoke step enforces them on an otherwise idle runner.
func TestRefineSmoke(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.Quick = true
	cfg.JSONDir = t.TempDir()
	if err := Run("refine", cfg); err != nil && !errors.Is(err, errGate) {
		t.Fatal(err)
	}
	r := readReport(t, cfg.JSONDir, "refine")
	if r.Experiment != "refine" || r.GeneratedUnix == 0 {
		t.Fatalf("report header = %+v", r)
	}
	gates := map[string]bool{}
	for _, g := range r.Gates {
		gates[g.Name] = true
	}
	for _, name := range []string{"refine_speedup_bfs", "refine_speedup_pagerank"} {
		if !gates[name] {
			t.Fatalf("gate %s missing: %+v", name, r.Gates)
		}
	}
	small := 0
	for _, s := range r.Series {
		if small == 0 || s.Batch < small {
			small = s.Batch
		}
	}
	seen := map[string]bool{}
	for _, s := range r.Series {
		if s.Batch != small {
			continue
		}
		seen[s.Alg+":"+s.Variant] = true
		if s.Count == 0 || s.MeanMs <= 0 {
			t.Fatalf("unpopulated series %+v", s)
		}
	}
	for _, want := range []string{"bfs:refined", "bfs:scratch", "pagerank:refined", "pagerank:scratch"} {
		if !seen[want] {
			t.Fatalf("missing series %s at batch %d; have %v", want, small, seen)
		}
	}
}

// TestViewQuickEmitsJSON checks the satellite: the quick work-ratio gates are
// also emitted as a JSON report with the shared schema.
func TestViewQuickEmitsJSON(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.Quick = true
	cfg.JSONDir = t.TempDir()
	if err := Run("view", cfg); err != nil {
		t.Fatal(err)
	}
	r := readReport(t, cfg.JSONDir, "view")
	if len(r.Gates) != 1 || r.Gates[0].Name != "work_ratio_maintained" {
		t.Fatalf("gates = %+v", r.Gates)
	}
	if !r.Gates[0].Pass {
		t.Errorf("maintained gate failed in JSON but Run returned nil: %+v", r.Gates[0])
	}
	if r.Modeled["work_ratio_patched"] <= 0 {
		t.Errorf("modeled work_ratio_patched missing: %+v", r.Modeled)
	}
	assertConstructionEdges(t, r, 621312, 332688, 337591, map[string]float64{
		"patched_engine_patches":          2,
		"patched_partitions_rebuilt":      81,
		"patched_partitions_reused":       47,
		"patched_partitions_relabeled":    0,
		"patched_relabeled_edges":         0,
		"maintained_engine_patches":       2,
		"maintained_partitions_rebuilt":   87,
		"maintained_partitions_reused":    36,
		"maintained_partitions_relabeled": 5,
		"maintained_relabeled_edges":      46,
	})
}

func TestViewSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("view", tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"patched", "rebuild", "maintained", "work ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("table1", tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table I", "twitter", "usaroad", "rmat"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFig1Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig1", tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "original") || !strings.Contains(out, "vebo") {
		t.Errorf("output missing variants:\n%s", out)
	}
}

func TestTable4Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("table4", tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "must match") {
		t.Errorf("output missing sanity line:\n%s", buf.String())
	}
}

func TestFig4Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig4", tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "branch MPKI") {
		t.Errorf("output missing MPKI:\n%s", buf.String())
	}
}

func TestTable5Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("table5", tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "vmRmt") {
		t.Errorf("output missing columns:\n%s", buf.String())
	}
}

func TestFig6Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig6", tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "high-to-low") {
		t.Errorf("output missing series:\n%s", buf.String())
	}
}

func TestFig5Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig5", tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"random+vebo", "usaroad"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestTable6Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("table6", tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "speedups") {
		t.Errorf("output missing speedups:\n%s", buf.String())
	}
}

func TestTable3SmokeSingleGraph(t *testing.T) {
	// Table3 over all 8 graphs is heavy; restrict to two graphs for the
	// smoke test via the package-level list.
	saved := table3Graphs
	table3Graphs = []string{"livejournal", "usaroad"}
	defer func() { table3Graphs = saved }()
	var buf bytes.Buffer
	if err := Run("table3", tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ligra", "polymer", "graphgrind", "geomean", "SPMV"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// Polymer must skip BC
	if strings.Contains(out, "BC     polymer") {
		t.Error("polymer should not run BC")
	}
}

func TestPartitionersSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("partitioners", tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ldg", "fennel", "vebo", "algo1"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestDynamicSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("dynamic", tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"incremental", "rebuild/batch", "ldg(final)", "fennel(final)", "): true"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestGroupBounds(t *testing.T) {
	fine := []int64{0, 10, 20, 30, 40, 50, 60, 70, 80}
	got := core.CoarsenBounds(fine, 4)
	want := []int64{0, 20, 40, 60, 80}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CoarsenBounds = %v, want %v", got, want)
		}
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if p := pearson(x, x); p < 0.999 {
		t.Errorf("self-correlation = %v", p)
	}
	y := []float64{4, 3, 2, 1}
	if p := pearson(x, y); p > -0.999 {
		t.Errorf("anti-correlation = %v", p)
	}
	if p := pearson(x, []float64{5, 5, 5, 5}); p != 0 {
		t.Errorf("constant correlation = %v", p)
	}
}
