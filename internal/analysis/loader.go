package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// A Package is one fully parsed and type-checked unit ready for analysis.
type Package struct {
	Path  string
	Name  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// TypeErrors holds soft type-checking errors; analyzers still run on
	// the partial information when it is non-empty.
	TypeErrors []error
}

// Loader loads module packages for analysis without any tooling
// dependencies. Module-internal imports are type-checked from source;
// standard-library imports resolve through gc export data discovered with
// `go list -export` (falling back to the source importer when export data
// is unavailable, e.g. a cold build cache).
type Loader struct {
	Fset    *token.FileSet
	Root    string // module root directory
	ModPath string // module path from go.mod
	Ann     *Annotations

	goVersion string

	exportOnce sync.Once
	export     map[string]string // import path -> export data file
	gcImp      types.Importer
	srcImpOnce sync.Once
	srcImp     types.Importer

	imports map[string]*types.Package // import-variant cache (no _test.go files)
	loading map[string]bool           // import cycle guard
}

// NewLoader locates the module containing dir and prepares a loader for it.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, goVer, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	// The source-importer fallback cannot process cgo files; stdlib cgo
	// packages (net, os/user) all have pure-Go fallbacks gated on this.
	build.Default.CgoEnabled = false
	return &Loader{
		Fset:      token.NewFileSet(),
		Root:      root,
		ModPath:   modPath,
		Ann:       NewAnnotations(root, modPath),
		goVersion: goVer,
		imports:   make(map[string]*types.Package),
		loading:   make(map[string]bool),
	}, nil
}

func findModule(dir string) (root, modPath, goVer string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		data, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					modPath = strings.TrimSpace(rest)
				} else if rest, ok := strings.CutPrefix(line, "go "); ok {
					goVer = "go" + strings.TrimSpace(rest)
				}
			}
			if modPath == "" {
				return "", "", "", fmt.Errorf("%s/go.mod: no module directive", d)
			}
			return d, modPath, goVer, nil
		}
		if filepath.Dir(d) == d {
			return "", "", "", fmt.Errorf("no go.mod above %s", dir)
		}
	}
}

// Import implements types.Importer for the dependencies of analyzed
// packages.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		return l.importInternal(path)
	}
	return l.importStdlib(path)
}

func (l *Loader) importStdlib(path string) (*types.Package, error) {
	l.exportOnce.Do(l.initExport)
	if l.gcImp != nil {
		if pkg, err := l.gcImp.Import(path); err == nil {
			return pkg, nil
		}
	}
	l.srcImpOnce.Do(func() {
		l.srcImp = importer.ForCompiler(l.Fset, "source", nil)
	})
	return l.srcImp.Import(path)
}

// initExport indexes gc export data for the module's whole dependency
// closure (including test deps) out of the build cache.
func (l *Loader) initExport() {
	l.export = make(map[string]string)
	cmd := exec.Command("go", "list", "-export", "-deps", "-test",
		"-f", "{{.ImportPath}}\x01{{.Export}}", "./...")
	cmd.Dir = l.Root
	out, err := cmd.Output()
	if err != nil {
		return // leave the map empty; srcimporter takes over
	}
	for _, line := range strings.Split(string(out), "\n") {
		ip, exp, ok := strings.Cut(line, "\x01")
		if !ok || exp == "" || strings.Contains(ip, " ") {
			continue
		}
		l.export[ip] = exp
	}
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := l.export[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	l.gcImp = importer.ForCompiler(l.Fset, "gc", lookup)
}

// importInternal type-checks a module package from its non-test sources.
func (l *Loader) importInternal(path string) (*types.Package, error) {
	if pkg, ok := l.imports[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	files, err := l.parseDir(dir, func(name string) bool {
		return !strings.HasSuffix(name, "_test.go")
	})
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	for _, f := range files {
		l.Ann.AddFile(path, f)
	}
	l.Ann.MarkScanned(path)
	pkg, _, errs := l.check(path, files)
	if len(errs) > 0 {
		return pkg, fmt.Errorf("type-checking %s: %v", path, errs[0])
	}
	l.imports[path] = pkg
	return pkg, nil
}

func (l *Loader) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
	return filepath.Join(l.Root, filepath.FromSlash(rel))
}

func (l *Loader) pathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside module %s", dir, l.Root)
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

func (l *Loader) parseDir(dir string, keep func(string) bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !keep(name) {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if !buildConstraintsOK(src) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// buildConstraintsOK rejects files carrying a //go:build line, which this
// loader does not evaluate; the module has none on its analyzed paths.
func buildConstraintsOK(src []byte) bool {
	for _, line := range bytes.Split(src, []byte("\n")) {
		trimmed := bytes.TrimSpace(line)
		if bytes.HasPrefix(trimmed, []byte("//go:build")) {
			return false
		}
		if len(trimmed) > 0 && !bytes.HasPrefix(trimmed, []byte("//")) {
			return true // reached package clause: no constraint
		}
	}
	return true
}

func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, []error) {
	info := NewInfo()
	var errs []error
	conf := types.Config{
		Importer:  l,
		GoVersion: l.goVersion,
		Error:     func(err error) { errs = append(errs, err) },
	}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil && len(errs) == 0 {
		errs = append(errs, err)
	}
	return pkg, info, errs
}

// LoadDir loads the single package rooted at dir — including its test
// files — as import path asPath, returning the base package and, when
// external (_test-suffixed) test files exist, that package too.
func (l *Loader) LoadDir(dir, asPath string) ([]*Package, error) {
	all, err := l.parseDir(dir, func(string) bool { return true })
	if err != nil {
		return nil, err
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	// Split files into the base package and the external test package.
	var baseName string
	for _, f := range all {
		name := f.Name.Name
		if !strings.HasSuffix(name, "_test") {
			baseName = name
			break
		}
	}
	if baseName == "" {
		baseName = strings.TrimSuffix(all[0].Name.Name, "_test")
	}
	var baseFiles, extFiles []*ast.File
	for _, f := range all {
		if f.Name.Name == baseName {
			baseFiles = append(baseFiles, f)
		} else if f.Name.Name == baseName+"_test" {
			extFiles = append(extFiles, f)
		} else {
			return nil, fmt.Errorf("%s: mixed packages %q and %q", dir, baseName, f.Name.Name)
		}
	}

	var pkgs []*Package
	for _, f := range baseFiles {
		l.Ann.AddFile(asPath, f)
	}
	l.Ann.MarkScanned(asPath)
	basePkg, baseInfo, baseErrs := l.check(asPath, baseFiles)
	pkgs = append(pkgs, &Package{
		Path: asPath, Name: baseName, Fset: l.Fset,
		Files: baseFiles, Types: basePkg, Info: baseInfo, TypeErrors: baseErrs,
	})

	if len(extFiles) > 0 {
		// External test files import the base package; make that import
		// resolve to the in-package test variant just checked, so helpers
		// exported via _test.go files are visible. As under go test, every
		// module package that depends on the base package is checked
		// afresh against that variant, so a type reached through such a
		// dependency is the same type.
		saved := l.imports
		l.imports = map[string]*types.Package{asPath: basePkg}
		for path, pkg := range saved {
			if path != asPath && !dependsOn(pkg, asPath, map[*types.Package]bool{}) {
				l.imports[path] = pkg
			}
		}
		extPkg, extInfo, extErrs := l.check(asPath+"_test", extFiles)
		l.imports = saved
		pkgs = append(pkgs, &Package{
			Path: asPath + "_test", Name: baseName + "_test", Fset: l.Fset,
			Files: extFiles, Types: extPkg, Info: extInfo, TypeErrors: extErrs,
		})
	}
	return pkgs, nil
}

// dependsOn reports whether pkg imports the package at path, directly or
// through other imports; seen marks the packages already walked.
func dependsOn(pkg *types.Package, path string, seen map[*types.Package]bool) bool {
	if seen[pkg] {
		return false
	}
	seen[pkg] = true
	for _, imp := range pkg.Imports() {
		if imp.Path() == path || dependsOn(imp, path, seen) {
			return true
		}
	}
	return false
}

// Load expands go-style package patterns (".", "./...", "./internal/obs",
// "dir/...") relative to cwd and loads every matched package with its test
// files.
func (l *Loader) Load(cwd string, patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(cwd, patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		path, err := l.pathFor(dir)
		if err != nil {
			return nil, err
		}
		got, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", dir, err)
		}
		pkgs = append(pkgs, got...)
	}
	return pkgs, nil
}

func (l *Loader) expand(cwd string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." {
			pat, recursive = ".", true
		} else if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			pat, recursive = rest, true
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(cwd, filepath.FromSlash(pat))
		}
		if !recursive {
			add(dir)
			continue
		}
		err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if p != dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(d.Name(), ".go") {
				add(filepath.Dir(p))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}
