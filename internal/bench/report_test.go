package bench

import (
	"bytes"
	"errors"
	"testing"
)

// TestFinishFailedGate checks the one Quick-mode check every gated
// experiment shares: a gate at pass=false is written to the report as is,
// and only Quick mode turns it into errGate.
func TestFinishFailedGate(t *testing.T) {
	r := Report{
		Experiment: "view",
		Config:     ReportConfig{Scale: 0.05, Seed: 7, Quick: true},
		Gates: []Gate{
			{Name: "work_ratio_maintained", Value: 0.9, Threshold: 1, Pass: false},
		},
	}
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.Quick = true
	cfg.JSONDir = t.TempDir()
	if err := finish(cfg, r); !errors.Is(err, errGate) {
		t.Fatalf("quick finish with a failed gate = %v, want errGate", err)
	}
	got := readReport(t, cfg.JSONDir, "view")
	if len(got.Gates) != 1 || got.Gates[0].Pass || got.Gates[0].Value != 0.9 {
		t.Fatalf("gates on disk = %+v, want the failed gate", got.Gates)
	}

	cfg.Quick = false
	if err := finish(cfg, r); err != nil {
		t.Fatalf("non-quick finish with a failed gate = %v, want nil", err)
	}
}
