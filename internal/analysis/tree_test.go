package analysis

import (
	"os/exec"
	"strings"
	"testing"
)

// TestSuiteCleanOnTree runs the CI vebovet gate, go vet -vettool=vebovet
// ./... from the module root: the full analyzer suite must come back empty
// over every package in the module (tests included). A finding here means
// either a real contract violation to fix or a rule that needs narrowing —
// never a suppression.
func TestSuiteCleanOnTree(t *testing.T) {
	const root = "../.."
	list := exec.Command("go", "list", "./...")
	list.Dir = root
	pkgs, err := list.Output()
	if err != nil {
		t.Fatalf("go list ./...: %v", err)
	}
	if n := strings.Count(string(pkgs), "\n"); n < 20 {
		t.Fatalf("./... matched only %d packages; vet is not reaching the module", n)
	}
	if out, clean := goVet(t, root, "./..."); !clean || out != "" {
		t.Fatalf("go vet -vettool=vebovet ./... is not clean:\n%s", out)
	}
}
