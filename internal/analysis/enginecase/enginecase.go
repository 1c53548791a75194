// Package enginecase defines the fdlint analyzer that keeps explore.Engine
// switches exhaustive.
//
// The explorer dispatches on explore.Engine in several places: run
// execution (exploreConfig), labelling, CLI parsing. The engines are
// deliberately kept differentially comparable — source-DPOR and classic
// DPOR must find identical violation sets — so a switch that silently
// routes an unknown engine into one of the existing arms (via default, or
// by falling off the end) would let a future engine inherit another
// engine's code path without anyone noticing: sweeps would run, report
// "violation-free", and test a different algorithm than claimed.
//
// The rule: every switch statement whose tag has type explore.Engine must
// have an explicit case for every declared constant of that type. A default
// clause is allowed *in addition* (as a panic guard for corrupted values)
// but never substitutes for a missing enumerator.
package enginecase

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"weakestfd/internal/analysis"
	"weakestfd/internal/analysis/simtypes"
	"weakestfd/internal/analysis/suppress"
)

var Analyzer = &analysis.Analyzer{
	Name: "enginecase",
	Doc:  "switches over explore.Engine must cover every engine constant explicitly",
	Run:  run,
}

// pkgSuffix and typeName name the enum whose switches must be exhaustive:
// explore.Engine, matched by package-path suffix.
const (
	pkgSuffix = "internal/explore"
	typeName  = "Engine"
)

func run(pass *analysis.Pass) {
	sup := suppress.New(pass)
	simtypes.NonTestFuncs(pass, func(decl *ast.FuncDecl) {
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tagType := pass.TypesInfo.TypeOf(sw.Tag)
			if tagType == nil || !simtypes.IsNamed(tagType, pkgSuffix, typeName) {
				return true
			}
			named := types.Unalias(tagType).(*types.Named)
			missing := missingConstants(pass, named, sw)
			if len(missing) > 0 {
				sup.Report(pass, sw.Switch,
					"switch over %s.%s is not exhaustive: missing %s (an unlisted engine must fail loudly, not inherit another engine's arm)",
					named.Obj().Pkg().Name(), typeName, strings.Join(missing, ", "))
			}
			return true
		})
	})
}

// missingConstants returns the names of declared constants of typ (in its
// defining package's scope) whose values no case clause of sw covers.
func missingConstants(pass *analysis.Pass, typ *types.Named, sw *ast.SwitchStmt) []string {
	covered := map[string]bool{} // by exact constant value
	for _, clause := range sw.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil {
				covered[tv.Value.ExactString()] = true
			}
		}
	}
	scope := typ.Obj().Pkg().Scope()
	var missing []string
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), typ) {
			continue
		}
		if !covered[c.Val().ExactString()] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	return missing
}
