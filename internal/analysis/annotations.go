package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// Annotations is the module-wide index of //vebo:* source directives.
//
// Two directives exist (DESIGN.md §7):
//
//	//vebo:frozen [allow=f,g]
//	    On a type declaration: values of the type are immutable outside
//	    builder functions (functions whose signature returns the type) and
//	    the optional comma-separated allow list of same-package functions.
//	//vebo:guardedby <mutexField>
//	    On a struct field: the field may only be accessed while the named
//	    sibling mutex field is held.
//
// The index is populated from the syntax of every package a Pass analyzes,
// and lazily from parse-only scans of other module packages when an
// analyzer asks about a type defined elsewhere (annotations never need type
// information to read, so a comment-level parse is enough).
type Annotations struct {
	modRoot string // module root directory ("" disables cross-package scans)
	modPath string // module import path, e.g. "repro"

	scanned map[string]bool       // package import paths already indexed
	frozen  map[string]frozenInfo // "pkgpath.Type" -> info
	guarded map[string]string     // "pkgpath.Type.field" -> mutex field name
}

type frozenInfo struct {
	allow map[string]bool // extra same-package functions allowed to mutate
}

// NewAnnotations returns an empty index rooted at the module. modRoot is
// "" for a package outside any module, which disables cross-package lazy
// scanning.
func NewAnnotations(modRoot, modPath string) *Annotations {
	return &Annotations{
		modRoot: modRoot,
		modPath: modPath,
		scanned: make(map[string]bool),
		frozen:  make(map[string]frozenInfo),
		guarded: make(map[string]string),
	}
}

// AddFile indexes every //vebo:* directive in f, attributing the
// annotated types to package pkgPath.
func (a *Annotations) AddFile(pkgPath string, f *ast.File) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			doc := ts.Doc
			if doc == nil && len(gd.Specs) == 1 {
				doc = gd.Doc
			}
			for _, line := range directiveLines(doc, ts.Comment) {
				if rest, ok := strings.CutPrefix(line, "vebo:frozen"); ok {
					a.frozen[pkgPath+"."+ts.Name.Name] = parseFrozen(rest)
				}
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			for _, fl := range st.Fields.List {
				for _, line := range directiveLines(fl.Doc, fl.Comment) {
					rest, ok := strings.CutPrefix(line, "vebo:guardedby")
					if !ok {
						continue
					}
					mu := strings.TrimSpace(rest)
					if mu == "" {
						continue
					}
					for _, name := range fl.Names {
						a.guarded[pkgPath+"."+ts.Name.Name+"."+name.Name] = mu
					}
				}
			}
		}
	}
}

// Frozen reports whether the named type carries //vebo:frozen, and if so
// which extra functions its allow list names.
func (a *Annotations) Frozen(pkgPath, typeName string) (frozenInfo, bool) {
	a.ensure(pkgPath)
	fi, ok := a.frozen[pkgPath+"."+typeName]
	return fi, ok
}

// GuardedBy returns the mutex field guarding pkgPath.Type.field, if the
// field carries //vebo:guardedby.
func (a *Annotations) GuardedBy(pkgPath, typeName, field string) (string, bool) {
	a.ensure(pkgPath)
	mu, ok := a.guarded[pkgPath+"."+typeName+"."+field]
	return mu, ok
}

// ensure lazily indexes a module-internal package the current Pass did not
// load, by parsing its sources for comments only.
func (a *Annotations) ensure(pkgPath string) {
	if a.scanned[pkgPath] || a.modRoot == "" {
		return
	}
	a.scanned[pkgPath] = true
	rel, ok := strings.CutPrefix(pkgPath, a.modPath)
	if !ok {
		return // not this module; nothing to scan
	}
	dir := filepath.Join(a.modRoot, filepath.FromSlash(strings.TrimPrefix(rel, "/")))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			continue
		}
		a.AddFile(pkgPath, f)
	}
}

// MarkScanned records that pkgPath's syntax has already been fed to
// AddFile, so ensure will not re-parse it from disk.
func (a *Annotations) MarkScanned(pkgPath string) { a.scanned[pkgPath] = true }

// directiveLines extracts the "vebo:..." payload of directive comments
// ("//vebo:frozen", tolerating a space after "//") from the given groups.
func directiveLines(groups ...*ast.CommentGroup) []string {
	var out []string
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if strings.HasPrefix(text, "vebo:") {
				out = append(out, text)
			}
		}
	}
	return out
}

func parseFrozen(rest string) frozenInfo {
	fi := frozenInfo{allow: make(map[string]bool)}
	for _, tok := range strings.Fields(rest) {
		if names, ok := strings.CutPrefix(tok, "allow="); ok {
			for _, n := range strings.Split(names, ",") {
				if n = strings.TrimSpace(n); n != "" {
					fi.allow[n] = true
				}
			}
		}
	}
	return fi
}
