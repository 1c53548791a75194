// Package seamcheck defines the fdlint analyzer that keeps detector queries
// first-class accesses: outside internal/fd, failure detector output may
// only be observed through the query seam.
//
// PR 5's soundness argument (internal/sim/query.go) models each detector
// history as a virtual shared object: queries are recorded reads, output
// flips are recorded writes, and a boundary-guard read at T−1 orders every
// step against the flip at T. DPOR's independence relation is complete only
// if *every* observation of detector output actually routes through that
// seam — fd.QueryAt or sim.QuerySeam.Query. A direct h.Value(p, t) call on
// a history is a read the access log never sees: schedules that disagree on
// what the query returned get merged into one equivalence class, and
// "violation-free" stops meaning anything for unstable-history sweeps.
//
// This analyzer flags every call to the Value method of a type implementing
// sim.Oracle, in any package outside internal/fd (which owns QueryAt and
// the history implementations) and excluding _test.go files. The
// audited exceptions — the seam's own oracle evaluation in
// sim.QuerySeam.Query/OnStep, and the local history *transformers* in
// internal/core that define one oracle pointwise in terms of another —
// carry //lint:fdlint seamcheck suppressions with inline justification.
package seamcheck

import (
	"go/ast"
	"go/types"

	"weakestfd/internal/analysis"
	"weakestfd/internal/analysis/simtypes"
	"weakestfd/internal/analysis/suppress"
)

var Analyzer = &analysis.Analyzer{
	Name: "seamcheck",
	Doc:  "detector output must be observed through fd.QueryAt/sim.QuerySeam, never Oracle.Value directly",
	Run:  run,
}

func run(pass *analysis.Pass) {
	if simtypes.PathHasSuffix(pass.Pkg.Path(), "internal/fd") {
		return
	}
	sim := simtypes.PkgWithSuffix(pass.Pkg, "internal/sim")
	if sim == nil {
		return
	}
	oracleObj := sim.Scope().Lookup("Oracle")
	if oracleObj == nil {
		return
	}
	oracle, ok := oracleObj.Type().Underlying().(*types.Interface)
	if !ok {
		return
	}
	sup := suppress.New(pass)
	simtypes.NonTestFuncs(pass, func(decl *ast.FuncDecl) {
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Value" {
				return true
			}
			fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
			if !ok || fn.Type().(*types.Signature).Recv() == nil {
				return true
			}
			recv := pass.TypesInfo.TypeOf(sel.X)
			if recv == nil || !types.Implements(recv, oracle) {
				return true
			}
			sup.Report(pass, sel.Sel.Pos(),
				"detector output observed via Oracle.Value: queries must route through fd.QueryAt/sim.QuerySeam so the access log records the read (unstable-history DPOR soundness)")
			return true
		})
	})
}
