package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one fdlint rule. Name is the key //lint:fdlint directives
// suppress it by, Doc a one-line summary, and Run inspects one type-checked
// package, reporting findings through the Pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a finding at pos.
func (pass *Pass) Reportf(pos token.Pos, format string, args ...any) {
	pass.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// NewInfo returns a types.Info that records what the analyzers consult:
// expression types and constant values, and identifier definitions and uses.
func NewInfo() *types.Info {
	return &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
}

// Run applies each analyzer to one type-checked package and returns the
// findings, grouped by analyzer in the order given.
func Run(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    func(d Diagnostic) { diags = append(diags, d) },
		})
	}
	return diags
}
