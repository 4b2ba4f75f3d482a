package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeJSON(t *testing.T, dir, name string, v any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func report(exp string, cfg ReportConfig, gates map[string]float64, modeled map[string]float64) Report {
	r := Report{Experiment: exp, Config: cfg, Modeled: modeled}
	for name, v := range gates {
		r.Gates = append(r.Gates, Gate{Name: name, Value: v, Pass: true})
	}
	return r
}

func diffByMetric(rep *BaselineReport) map[string]BaselineDiff {
	out := make(map[string]BaselineDiff, len(rep.Diffs))
	for _, d := range rep.Diffs {
		out[d.Metric] = d
	}
	return out
}

func TestCompareBaselineDirections(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	cfg := ReportConfig{Scale: 0.2, Seed: 42, Ops: 1000, Batch: 64}
	writeJSON(t, baseDir, "BENCH_grow.json", report("grow", cfg,
		map[string]float64{
			"work_ratio_maintained": 2.0, // higher-is-better: 20% drop regresses
			"grow_batch_frac":       0.4, // equal: drift either way regresses
			"relabeled_edges":       0,   // lower + zero baseline: exact contract
		},
		map[string]float64{"placement_edges": 500}, // raw count: equal under same cfg
	))
	writeJSON(t, curDir, "BENCH_grow.json", report("grow", cfg,
		map[string]float64{
			"work_ratio_maintained": 1.6,
			"grow_batch_frac":       0.41,
			"relabeled_edges":       3,
		},
		map[string]float64{"placement_edges": 500},
	))

	var out bytes.Buffer
	rep, err := CompareBaseline(curDir, baseDir, &out)
	if err != nil {
		t.Fatal(err)
	}
	d := diffByMetric(rep)

	if dd := d["gate:work_ratio_maintained"]; !dd.Regressed || dd.Direction != "higher" {
		t.Errorf("ratio drop 2.0->1.6 not flagged: %+v", dd)
	}
	if dd := d["gate:grow_batch_frac"]; dd.Regressed || dd.Direction != "equal" {
		t.Errorf("frac drift within 15%% wrongly flagged: %+v", dd)
	}
	if dd := d["gate:relabeled_edges"]; !dd.Regressed {
		t.Errorf("zero-baseline contract 0->3 not flagged: %+v", dd)
	}
	if dd := d["modeled:placement_edges"]; dd.Regressed {
		t.Errorf("unchanged raw count flagged: %+v", dd)
	}
	if rep.Regressions != 2 {
		t.Errorf("Regressions = %d, want 2 (ratio drop + relabeled contract)", rep.Regressions)
	}

	// The machine-readable diff landed next to the current reports.
	data, err := os.ReadFile(filepath.Join(curDir, "BENCH_baseline_diff.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk BaselineReport
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	if onDisk.Regressions != rep.Regressions || len(onDisk.Diffs) != len(rep.Diffs) {
		t.Errorf("BENCH_baseline_diff.json disagrees with returned report")
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("table output lacks REGRESSED rows:\n%s", out.String())
	}
}

func TestCompareBaselineTolerancesOverride(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	cfg := ReportConfig{Scale: 0.2, Seed: 42}
	writeJSON(t, baseDir, "BENCH_refine.json", report("refine", cfg,
		map[string]float64{"refine_speedup_min": 2.0}, nil))
	writeJSON(t, curDir, "BENCH_refine.json", report("refine", cfg,
		map[string]float64{"refine_speedup_min": 1.2}, nil))

	// 40% drop: regresses at the default 15% and passes with a 50% override.
	rep, err := CompareBaseline(curDir, baseDir, new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 1 {
		t.Fatalf("default tolerance: Regressions = %d, want 1", rep.Regressions)
	}

	writeJSON(t, baseDir, "tolerances.json", BaselineTolerances{
		DefaultPct: 15,
		Metrics:    map[string]MetricTolerance{"gate:refine_speedup_min": {Pct: 50}},
	})
	rep, err = CompareBaseline(curDir, baseDir, new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 0 {
		t.Fatalf("widened tolerance: Regressions = %d, want 0", rep.Regressions)
	}
}

// TestCompareBaselineRejectsUnknownTolerances checks that a tolerances.json
// key the schema does not know, a typo or a retired override, fails the
// comparison instead of being dropped, as does data after the object.
func TestCompareBaselineRejectsUnknownTolerances(t *testing.T) {
	for _, tol := range []string{
		`{"default_pc": 50}`,
		`{"metrics": {"gate:refine_speedup_min": {"pct": 50, "direction": "ignore"}}}`,
		`{"default_pct": 50} {}`,
	} {
		baseDir, curDir := t.TempDir(), t.TempDir()
		cfg := ReportConfig{Scale: 0.2, Seed: 42}
		writeJSON(t, baseDir, "BENCH_refine.json", report("refine", cfg, map[string]float64{"refine_speedup_min": 2.0}, nil))
		writeJSON(t, curDir, "BENCH_refine.json", report("refine", cfg, map[string]float64{"refine_speedup_min": 2.0}, nil))
		if err := os.WriteFile(filepath.Join(baseDir, "tolerances.json"), []byte(tol), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := CompareBaseline(curDir, baseDir, new(bytes.Buffer)); err == nil {
			t.Errorf("tolerances %s were accepted", tol)
		}
	}
}

func TestCompareBaselineConfigMismatch(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	full := ReportConfig{Scale: 0.2, Seed: 42, Ops: 10000, Batch: 64}
	quick := ReportConfig{Scale: 0.05, Seed: 42, Ops: 768, Batch: 64, Quick: true}
	writeJSON(t, baseDir, "BENCH_grow.json", report("grow", full,
		map[string]float64{"work_ratio_maintained": 2.3},
		map[string]float64{"placement_edges": 90000}))
	writeJSON(t, curDir, "BENCH_grow.json", report("grow", quick,
		map[string]float64{"work_ratio_maintained": 2.1},
		map[string]float64{"placement_edges": 4000}))

	rep, err := CompareBaseline(curDir, baseDir, new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	d := diffByMetric(rep)
	// The scale-free ratio is compared across the quick/full config gap...
	if dd := d["gate:work_ratio_maintained"]; dd.Regressed || dd.Note != "" {
		t.Errorf("scale-free ratio not compared across configs: %+v", dd)
	}
	// ...while the raw edge count is skipped, not reported as a 95% crash.
	if dd := d["modeled:placement_edges"]; dd.Regressed || dd.Note == "" {
		t.Errorf("scale-dependent count compared across configs: %+v", dd)
	}
	if rep.Regressions != 0 {
		t.Errorf("Regressions = %d, want 0", rep.Regressions)
	}
}

func TestCompareBaselineMissingAndSkippedFiles(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	cfg := ReportConfig{Scale: 0.2, Seed: 42}
	writeJSON(t, baseDir, "BENCH_view.json", report("view", cfg,
		map[string]float64{"work_ratio": 3.0}, nil))
	// Riders that must be ignored, not treated as baselines: the comparator's
	// own output, a trace export, and a non-report JSON file.
	writeJSON(t, baseDir, "BENCH_baseline_diff.json", BaselineReport{})
	writeJSON(t, baseDir, "BENCH_run_trace.json", map[string]any{"traceEvents": []any{}})
	writeJSON(t, baseDir, "BENCH_notes.json", map[string]string{"note": "not a report"})

	var out bytes.Buffer
	rep, err := CompareBaseline(curDir, baseDir, &out)
	if err != nil {
		t.Fatal(err)
	}
	// No current BENCH_view.json: noted, never a regression.
	if rep.Regressions != 0 || rep.Compared != 0 {
		t.Fatalf("missing current report counted: %+v", rep)
	}
	found := false
	for _, d := range rep.Diffs {
		if d.Experiment == "view" && strings.Contains(d.Note, "no current report") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing-report note absent from diffs: %+v", rep.Diffs)
	}
	for _, name := range []string{"BENCH_run_trace.json", "BENCH_notes.json"} {
		if !strings.Contains(out.String(), "skipping "+name) {
			t.Errorf("non-report baseline %s not announced as skipped:\n%s", name, out.String())
		}
	}
}

// A recorded metric missing from a report that does exist is a regression:
// an experiment that stops emitting a gate must not pass the baseline gate.
func TestCompareBaselineMissingMetricRegresses(t *testing.T) {
	baseDir, curDir := t.TempDir(), t.TempDir()
	cfg := ReportConfig{Scale: 0.2, Seed: 42, Ops: 1000, Batch: 64}
	writeJSON(t, baseDir, "BENCH_grow.json", report("grow", cfg,
		map[string]float64{"work_ratio_maintained": 2.3, "odelta_relabeled_edges_patched": 0},
		map[string]float64{"work_ratio_patched": 2.4}))
	writeJSON(t, curDir, "BENCH_grow.json", report("grow", cfg,
		map[string]float64{"work_ratio_maintained": 2.3},
		map[string]float64{"work_ratio_patched": 2.4}))

	var out bytes.Buffer
	rep, err := CompareBaseline(curDir, baseDir, &out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 1 {
		t.Fatalf("Regressions = %d, want 1 (the dropped gate)", rep.Regressions)
	}
	d := diffByMetric(rep)["gate:odelta_relabeled_edges_patched"]
	if !d.Regressed || !strings.Contains(d.Note, "missing") {
		t.Errorf("dropped gate not marked regressed: %+v", d)
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("table output lacks the REGRESSED row:\n%s", out.String())
	}
}
