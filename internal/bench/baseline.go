package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// The bench-regression baseline gate: CompareBaseline reads the recorded
// BENCH_*.json trajectory in a baseline directory (bench-records/ in this
// repo), matches each record against a freshly emitted report of the same
// experiment, and flags metrics that regressed beyond their tolerance.
// Gates and modeled values are compared — the scale-free ratios, speedups
// and fractions that define the repo's performance trajectory — not raw
// latency series, which depend on the machine. The result is printed as a
// table and written as a machine-readable BENCH_baseline_diff.json so CI
// artifacts carry the comparison alongside the reports it judged.

// BaselineTolerances is the optional tolerances.json schema a baseline
// directory may carry: a default tolerance percentage and per-metric
// tolerance overrides. An unknown key is an error, not a silent no-op.
type BaselineTolerances struct {
	// DefaultPct is the symmetric tolerance applied when a metric has no
	// override (default 15 — the "unexplained >15% regression" bar).
	DefaultPct float64 `json:"default_pct"`
	// Metrics overrides individual metrics, keyed by the diff's metric name
	// ("gate:work_ratio_maintained", "modeled:work_ratio_patched").
	Metrics map[string]MetricTolerance `json:"metrics,omitempty"`
}

// MetricTolerance is one per-metric override. The regression direction
// always comes from the metric's name (see defaultDirection).
type MetricTolerance struct {
	// Pct widens (or tightens) the tolerance for this metric.
	Pct float64 `json:"pct,omitempty"`
}

// BaselineDiff is one compared metric.
type BaselineDiff struct {
	Experiment string  `json:"experiment"`
	Metric     string  `json:"metric"`
	Baseline   float64 `json:"baseline"`
	Current    float64 `json:"current"`
	// DeltaPct is the signed relative change in percent (+ = current above
	// baseline); ±Inf is rendered as ±1e9 to stay valid JSON.
	DeltaPct     float64 `json:"delta_pct"`
	Direction    string  `json:"direction"`
	TolerancePct float64 `json:"tolerance_pct"`
	Regressed    bool    `json:"regressed"`
	// Note explains skipped or special-cased comparisons (missing current
	// report or metric, config mismatch).
	Note string `json:"note,omitempty"`
}

// BaselineReport is the machine-readable comparison record,
// BENCH_baseline_diff.json.
type BaselineReport struct {
	BaselineDir   string         `json:"baseline_dir"`
	GeneratedUnix int64          `json:"generated_unix"`
	Compared      int            `json:"compared"`
	Regressions   int            `json:"regressions"`
	Diffs         []BaselineDiff `json:"diffs"`
}

// DefaultBaselinePct is the tolerance applied without a tolerances.json.
const DefaultBaselinePct = 15

// defaultDirection infers a metric's regression direction from its name,
// mirroring the repo's metric vocabulary (DESIGN.md §6): "higher" (bigger
// is better — ratios and speedups), "lower" (smaller is better —
// latency-like values and relabel counts) or "equal" (drift either way
// regresses — fractions). Any other name returns "", and compareMetric
// holds it equal under a matching config.
func defaultDirection(name string) string {
	base := strings.TrimPrefix(strings.TrimPrefix(name, "gate:"), "modeled:")
	switch {
	case strings.Contains(base, "ratio"), strings.Contains(base, "speedup"):
		return "higher"
	case strings.Contains(base, "relabeled"):
		return "lower"
	case strings.HasSuffix(base, "_frac"):
		return "equal"
	case strings.HasSuffix(base, "_ns"), strings.HasSuffix(base, "_ms"):
		return "lower"
	default:
		return ""
	}
}

// scaleFree reports whether a direction-resolved metric can be compared
// across runs whose ReportConfig differs (quick CI runs against full-scale
// records): ratios, speedups and fractions are dimensionless; anything
// else needs matching configs.
func scaleFree(name string) bool {
	base := strings.TrimPrefix(strings.TrimPrefix(name, "gate:"), "modeled:")
	return strings.Contains(base, "ratio") || strings.Contains(base, "speedup") ||
		strings.HasSuffix(base, "_frac") || strings.Contains(base, "relabeled")
}

func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Experiment == "" {
		return nil, fmt.Errorf("%s: not a bench report (no experiment field)", path)
	}
	return &r, nil
}

func loadTolerances(dir string) (BaselineTolerances, error) {
	tol := BaselineTolerances{DefaultPct: DefaultBaselinePct}
	f, err := os.Open(filepath.Join(dir, "tolerances.json"))
	if os.IsNotExist(err) {
		return tol, nil
	}
	if err != nil {
		return tol, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tol); err != nil {
		return tol, fmt.Errorf("tolerances.json: %w", err)
	}
	if dec.More() {
		return tol, fmt.Errorf("tolerances.json: data after the top-level object")
	}
	if tol.DefaultPct <= 0 {
		tol.DefaultPct = DefaultBaselinePct
	}
	return tol, nil
}

// metricValues flattens a report's gates and modeled values into one
// name→value map with the gate:/modeled: prefixes the tolerance config and
// diffs use.
func metricValues(r *Report) map[string]float64 {
	out := make(map[string]float64, len(r.Gates)+len(r.Modeled))
	for _, g := range r.Gates {
		out["gate:"+g.Name] = g.Value
	}
	for name, v := range r.Modeled {
		out["modeled:"+name] = v
	}
	return out
}

func configsMatch(a, b ReportConfig) bool {
	return a.Scale == b.Scale && a.Seed == b.Seed && a.Ops == b.Ops &&
		a.Batch == b.Batch && a.Quick == b.Quick
}

func deltaPct(baseline, current float64) float64 {
	if baseline == 0 {
		switch {
		case current == 0:
			return 0
		case current > 0:
			return 1e9
		default:
			return -1e9
		}
	}
	return 100 * (current - baseline) / math.Abs(baseline)
}

// compareMetric builds the diff for one metric present in the baseline.
func compareMetric(exp, name string, baseVal, curVal float64, sameCfg bool, tol BaselineTolerances) (BaselineDiff, bool) {
	d := BaselineDiff{
		Experiment: exp, Metric: name,
		Baseline: baseVal, Current: curVal,
		DeltaPct:     deltaPct(baseVal, curVal),
		TolerancePct: tol.DefaultPct,
	}
	if mt := tol.Metrics[name]; mt.Pct > 0 {
		d.TolerancePct = mt.Pct
	}
	d.Direction = defaultDirection(name)
	if d.Direction == "" {
		if !sameCfg {
			return d, false // raw count under a different config: incomparable
		}
		d.Direction = "equal"
	}
	if !sameCfg && !scaleFree(name) {
		d.Note = "config mismatch, scale-dependent"
		return d, false
	}
	t := d.TolerancePct / 100
	switch d.Direction {
	case "higher":
		d.Regressed = curVal < baseVal-math.Abs(baseVal)*t
	case "lower":
		d.Regressed = curVal > baseVal+math.Abs(baseVal)*t
	case "equal":
		d.Regressed = math.Abs(curVal-baseVal) > math.Abs(baseVal)*t
		if baseVal == 0 {
			d.Regressed = curVal != 0
		}
	}
	if d.Direction == "lower" && baseVal == 0 {
		// A zero baseline is an exact contract (e.g. zero relabeled edges):
		// any positive value regresses it regardless of tolerance.
		d.Regressed = curVal > 0
	}
	return d, true
}

// CompareBaseline compares the BENCH_*.json reports in currentDir against
// the records in baselineDir, applying baselineDir/tolerances.json when
// present. The human-readable comparison is printed to out; the
// machine-readable BaselineReport is written to
// currentDir/BENCH_baseline_diff.json and returned. A missing current
// report for a recorded experiment is noted but is not a regression (CI
// may run a subset); a recorded metric missing from a current report is
// one. The caller decides whether Regressions > 0 is fatal.
func CompareBaseline(currentDir, baselineDir string, out io.Writer) (*BaselineReport, error) {
	tol, err := loadTolerances(baselineDir)
	if err != nil {
		return nil, err
	}
	paths, err := filepath.Glob(filepath.Join(baselineDir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	rep := &BaselineReport{BaselineDir: baselineDir, GeneratedUnix: time.Now().Unix()}
	for _, p := range paths {
		name := filepath.Base(p)
		if name == "BENCH_baseline_diff.json" {
			continue
		}
		base, err := loadReport(p)
		if err != nil {
			// Non-report JSON riding along in the records dir is not a
			// baseline; note and move on.
			fmt.Fprintf(out, "baseline: skipping %s: %v\n", name, err)
			continue
		}
		curPath := filepath.Join(currentDir, name)
		cur, err := loadReport(curPath)
		if err != nil {
			if os.IsNotExist(err) {
				rep.Diffs = append(rep.Diffs, BaselineDiff{
					Experiment: base.Experiment, Metric: "report",
					Note: "no current report (experiment not run)",
				})
				continue
			}
			return nil, err
		}
		sameCfg := configsMatch(base.Config, cur.Config)
		curVals := metricValues(cur)
		baseVals := metricValues(base)
		names := make([]string, 0, len(baseVals))
		for n := range baseVals {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			cv, ok := curVals[n]
			if !ok {
				// The experiment ran but no longer records this metric: a
				// dropped gate or modeled value is a regression, not a skip.
				rep.Compared++
				rep.Regressions++
				rep.Diffs = append(rep.Diffs, BaselineDiff{
					Experiment: base.Experiment, Metric: n, Baseline: baseVals[n],
					Regressed: true, Note: "metric missing from current report",
				})
				continue
			}
			d, compared := compareMetric(base.Experiment, n, baseVals[n], cv, sameCfg, tol)
			if !compared {
				if d.Note == "" {
					d.Note = "incomparable"
				}
				rep.Diffs = append(rep.Diffs, d)
				continue
			}
			rep.Compared++
			if d.Regressed {
				rep.Regressions++
			}
			rep.Diffs = append(rep.Diffs, d)
		}
	}

	fmt.Fprintf(out, "== baseline comparison against %s ==\n", baselineDir)
	fmt.Fprintf(out, "%-8s %-42s %12s %12s %9s %7s %-6s %s\n",
		"exp", "metric", "baseline", "current", "delta", "tol", "dir", "status")
	for _, d := range rep.Diffs {
		status := "ok"
		switch {
		case d.Regressed && d.Note != "":
			status = "REGRESSED (" + d.Note + ")"
		case d.Regressed:
			status = "REGRESSED"
		case d.Note != "":
			status = "skip (" + d.Note + ")"
		}
		fmt.Fprintf(out, "%-8s %-42s %12.4g %12.4g %+8.1f%% %6.0f%% %-6s %s\n",
			d.Experiment, d.Metric, d.Baseline, d.Current, d.DeltaPct,
			d.TolerancePct, d.Direction, status)
	}
	fmt.Fprintf(out, "compared %d metrics: %d regressions\n", rep.Compared, rep.Regressions)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	diffPath := filepath.Join(currentDir, "BENCH_baseline_diff.json")
	if err := os.WriteFile(diffPath, append(data, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("bench: writing %s: %w", diffPath, err)
	}
	fmt.Fprintf(out, "wrote %s\n", diffPath)
	return rep, nil
}
