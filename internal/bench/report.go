package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Report is the machine-readable result record shared by every experiment
// that emits JSON (view, grow, refine). CI parses these files, so the schema
// is append-only: new fields may be added, existing ones keep their names.
type Report struct {
	Experiment    string          `json:"experiment"`
	GeneratedUnix int64           `json:"generated_unix"`
	Config        ReportConfig    `json:"config"`
	Series        []LatencySeries `json:"series,omitempty"`
	Gates         []Gate          `json:"gates,omitempty"`
	// Modeled carries work-unit numbers (construction edges, ratios) that
	// have no wall-clock dimension; see DESIGN.md §6 on why the two are
	// reported side by side instead of being conflated.
	Modeled map[string]float64 `json:"modeled,omitempty"`
}

// ReportConfig records the knobs that shaped the run.
type ReportConfig struct {
	Scale float64 `json:"scale"`
	Seed  int64   `json:"seed"`
	Ops   int     `json:"ops,omitempty"`
	Batch int     `json:"batch,omitempty"`
	Quick bool    `json:"quick"`
}

// LatencySeries is one measured operation stream: the queries of one
// algorithm and strategy on one framework model. Latencies are wall-clock
// milliseconds taken from the exact per-query samples.
type LatencySeries struct {
	Op        string  `json:"op"`                // operation kind ("query")
	Alg       string  `json:"alg,omitempty"`     // query algorithm
	System    string  `json:"system,omitempty"`  // framework model
	Variant   string  `json:"variant,omitempty"` // query strategy (refine: "refined" vs "scratch")
	Batch     int     `json:"batch,omitempty"`   // ingest batch size shaping the series, when varied
	Count     int64   `json:"count"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50Ms     float64 `json:"p50_ms"`
	P95Ms     float64 `json:"p95_ms"`
	P99Ms     float64 `json:"p99_ms"`
	MeanMs    float64 `json:"mean_ms"`
}

// Gate is a pass/fail check the experiment enforces in Quick mode (see
// finish); CI also fails when any emitted gate has pass=false.
type Gate struct {
	Name      string  `json:"name"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Pass      bool    `json:"pass"`
}

// errGate marks a Quick-mode gate miss, returned after the report is
// written, so callers can tell it from a broken run.
var errGate = errors.New("gate failed")

// finish prints r's gates and writes BENCH_<experiment>.json into
// cfg.JSONDir (an empty JSONDir disables emission, the library/test
// default). In Quick mode it then returns errGate for the first gate that
// did not pass: the gates are the only checks an experiment enforces.
func finish(cfg Config, r Report) error {
	for _, g := range r.Gates {
		fmt.Fprintf(cfg.Out, "gate %s: %.4g (threshold %g, pass %v)\n", g.Name, g.Value, g.Threshold, g.Pass)
	}
	fmt.Fprintln(cfg.Out)
	if cfg.JSONDir != "" {
		if r.GeneratedUnix == 0 {
			r.GeneratedUnix = time.Now().Unix()
		}
		data, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(cfg.JSONDir, "BENCH_"+r.Experiment+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("bench: writing %s: %w", path, err)
		}
		fmt.Fprintf(cfg.Out, "wrote %s\n", path)
	}
	if cfg.Quick {
		for _, g := range r.Gates {
			if !g.Pass {
				return fmt.Errorf("%s: gate %s = %.4g missed its threshold %g: %w",
					r.Experiment, g.Name, g.Value, g.Threshold, errGate)
			}
		}
	}
	return nil
}
