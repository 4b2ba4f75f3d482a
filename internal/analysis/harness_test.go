package analysis

// An analysistest-style harness over the one way the suite runs: a vebovet
// binary under go vet -vettool. Each testdata package seeds violations
// annotated with `// want "regex"` trailing comments; the test fails on any
// unmatched want, any unexpected finding of the analyzer under test, and
// any vet output line that is not a finding (a type error or a tool
// error). The fixed/ variants hold the canonical fixes and must come back
// clean.

import (
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// vebovet is the path of the binary TestMain builds from ./cmd/vebovet.
var vebovet string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "vebovet")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	vebovet = filepath.Join(dir, "vebovet")
	code := 1
	if out, err := exec.Command("go", "build", "-o", vebovet, "repro/cmd/vebovet").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building vebovet: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// goVet runs go vet -vettool=vebovet on the packages matching pattern from
// dir and returns its combined output and whether it exited 0. A non-zero
// exit is not fatal here: vet exits 1 whenever the tool reports a finding.
func goVet(t *testing.T, dir, pattern string) (out string, clean bool) {
	t.Helper()
	cmd := exec.Command("go", "vet", "-vettool="+vebovet, pattern)
	cmd.Dir = dir
	b, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("go vet in %s: %v", dir, err)
	}
	return string(b), err == nil
}

func TestAtomicfield(t *testing.T) { runWant(t, "atomicfield") }
func TestFrozenwrite(t *testing.T) { runWant(t, "frozenwrite") }
func TestLockedfield(t *testing.T) { runWant(t, "lockedfield") }
func TestObshandle(t *testing.T)   { runWant(t, "obshandle") }

func runWant(t *testing.T, analyzer string) {
	t.Helper()
	for _, variant := range []string{"a", "fixed"} {
		t.Run(variant, func(t *testing.T) {
			checkDir(t, analyzer, filepath.Join("testdata", "src", analyzer, variant))
		})
	}
}

// findingRE matches one vebovet finding as go vet prints it:
// file:line:col: [analyzer] message.
var findingRE = regexp.MustCompile(`^(.+?):(\d+):\d+: \[(\w+)\] (.*)$`)

func checkDir(t *testing.T, analyzer, dir string) {
	t.Helper()
	wants := collectWants(t, dir)
	out, _ := goVet(t, dir, ".")
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "# ") {
			continue // blank or a "# package" header
		}
		m := findingRE.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("unexpected vet output: %s", line)
			continue
		}
		if m[3] != analyzer {
			continue
		}
		key := filepath.Base(m[1]) + ":" + m[2]
		matched := false
		rest := wants[key][:0]
		for _, re := range wants[key] {
			if !matched && re.MatchString(m[4]) {
				matched = true
				continue
			}
			rest = append(rest, re)
		}
		wants[key] = rest
		if !matched {
			t.Errorf("unexpected diagnostic at %s: [%s] %s", key, m[3], m[4])
		}
	}
	for key, res := range wants {
		for _, re := range res {
			t.Errorf("missing diagnostic at %s matching %q", key, re)
		}
	}
}

var wantTokenRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// collectWants parses every Go file in dir, test files included, and
// returns the `// want` patterns keyed by "file:line" (base file name).
func collectWants(t *testing.T, dir string) map[string][]*regexp.Regexp {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	wants := make(map[string][]*regexp.Regexp)
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				key := fmt.Sprintf("%s:%d", filepath.Base(name), fset.Position(c.Pos()).Line)
				for _, m := range wantTokenRE.FindAllStringSubmatch(rest, -1) {
					expr := m[1]
					if expr == "" {
						expr = m[2]
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", key, expr, err)
					}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	return wants
}
