// Command vebovet runs the project's static-analysis suite
// (internal/analysis: atomicfield, frozenwrite, lockedfield, obshandle —
// the machine-checked forms of the DESIGN.md §5–§7 concurrency contracts)
// as a go vet tool, which covers every package's test files too:
//
//	go build -o bin/vebovet ./cmd/vebovet
//	go vet -vettool=$PWD/bin/vebovet ./...
//
// That is its only mode. The binary speaks go vet's unitchecker protocol:
// it answers -flags and -V=full probes, fast-exits dependency units marked
// VetxOnly, and type-checks each analyzed unit against the gc export data
// go vet hands it (ImportMap/PackageFile). Pattern expansion, test
// variants and build constraints are go vet's; vebovet sees one package
// per run.
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// suiteVersion participates in go vet's result-cache key; bump it whenever
// analyzer behavior changes so stale cached findings are invalidated.
const suiteVersion = "1"

func main() {
	args := os.Args[1:]
	// go vet protocol probes.
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "-V":
			fmt.Printf("vebovet version %s\n", suiteVersion)
			return
		case a == "-flags":
			fmt.Println("[]")
			return
		}
	}
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(command -v vebovet) [packages]")
		os.Exit(1)
	}
	os.Exit(runUnit(args[0]))
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "vebovet:", err)
	return 1
}

// unitConfig is the subset of go vet's per-package JSON config this tool
// consumes.
type unitConfig struct {
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ModulePath                string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	GoVersion                 string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func runUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return fail(err)
	}
	var cfg unitConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return fail(err)
	}
	// Facts flow between units through the vetx files; this suite keeps no
	// cross-unit facts, but go vet requires the output file to exist.
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			_ = os.WriteFile(cfg.VetxOutput, nil, 0o666)
		}
	}
	if cfg.VetxOnly {
		writeVetx()
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				writeVetx()
				return 0
			}
			return fail(err)
		}
		files = append(files, f)
	}

	imp := &unitImporter{
		importMap: cfg.ImportMap,
		gc: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			file, ok := cfg.PackageFile[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(file)
		}),
	}
	ipath := cfg.ImportPath
	if i := strings.Index(ipath, " ["); i >= 0 {
		ipath = ipath[:i] // test variants: "pkg [pkg.test]"
	}
	info := analysis.NewInfo()
	var typeErrs []error
	conf := types.Config{
		Importer:  imp,
		GoVersion: cfg.GoVersion,
		Error:     func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(ipath, fset, files, info)
	if err != nil && len(typeErrs) == 0 {
		typeErrs = append(typeErrs, err)
	}
	if len(typeErrs) > 0 {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx()
			return 0
		}
		for _, e := range typeErrs {
			fmt.Fprintln(os.Stderr, e)
		}
		return 1
	}

	// Outside a module the root is "" and only local annotations count.
	ann := analysis.NewAnnotations(moduleRoot(cfg.Dir), cfg.ModulePath)
	for _, f := range files {
		ann.AddFile(ipath, f)
	}
	ann.MarkScanned(ipath)

	found := false
	report := func(d analysis.Diagnostic) {
		found = true
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	for _, a := range analysis.All() {
		pass := &analysis.Pass{
			Analyzer: a, Fset: fset, Files: files, Pkg: tpkg, Info: info, Ann: ann,
			Report: report,
		}
		if err := a.Run(pass); err != nil {
			return fail(fmt.Errorf("%s on %s: %w", a.Name, ipath, err))
		}
	}
	writeVetx()
	if found {
		return 2
	}
	return 0
}

type unitImporter struct {
	importMap map[string]string
	gc        types.Importer
}

func (u *unitImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := u.importMap[path]; ok {
		path = mapped
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return u.gc.Import(path)
}

// moduleRoot returns the nearest directory at or above dir holding a
// go.mod, or "" when there is none.
func moduleRoot(dir string) string {
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		if filepath.Dir(d) == d {
			return ""
		}
	}
}
