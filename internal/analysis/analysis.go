// Package analysis is the project's static-analysis suite: a small,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// core (Analyzer, Pass, Diagnostic) plus four project-specific analyzers
// that turn the prose concurrency contracts of DESIGN.md §5–§7 into
// machine-checked rules:
//
//   - atomicfield: a struct field accessed once through sync/atomic must be
//     accessed atomically everywhere; plain loads/stores race.
//   - frozenwrite: types annotated //vebo:frozen are immutable outside
//     their builder functions (epoch captures, published views, COW
//     ordering results).
//   - lockedfield: fields annotated //vebo:guardedby mu may only be touched
//     while the named sibling mutex is held (allocator and registry maps).
//   - obshandle: obs metric/span handles come from the nil-safe
//     constructors, and registered metric names follow the canonical
//     vebo_* vocabulary.
//
// The suite runs one way: as a go vet tool through cmd/vebovet
// (go vet -vettool=$(command -v vebovet) ./...). go vet loads each package
// and its test variants and hands the tool gc export data for the imports,
// so this package holds analyzers only, no loader. It is built on the
// standard library alone — go/ast and go/types — because this module
// deliberately has no third-party dependencies; the x/tools analysis
// runtime is re-derived here at the scale this suite needs, not vendored.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static check. Run inspects a single package
// (one Pass) and reports findings through the Pass; it returns an error
// only for analyzer-internal failures, never for findings.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass is one (analyzer, package) unit of work: the package's syntax,
// type information and the module-wide annotation index. Report receives
// each finding.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Ann      *Annotations
	Report   func(Diagnostic)
}

// A Diagnostic is one finding, attributed to the analyzer that produced it.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// All returns the full vebovet suite, the analyzers CI runs over every
// package.
func All() []*Analyzer {
	return []*Analyzer{Atomicfield, Frozenwrite, Lockedfield, Obshandle}
}

// NewInfo returns a types.Info with every map the analyzers rely on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}
