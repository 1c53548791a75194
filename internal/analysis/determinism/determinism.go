// Package determinism defines the fdlint analyzer that keeps machine steps
// and the explorer's hot paths replayable: no wall-clock time, no
// math/rand, no map-iteration order, no racing select, no goroutines.
//
// Everything the explorer produces is a claim about *re-executable* runs:
// counterexample artifacts replay schedules step for step (fdlab replay),
// pinned-digest and differential tests demand byte-identical results, and
// the state-hash join layer identifies runs by fingerprints of their shared
// state. All three break if a Step/Init body — or the runner/explorer code
// driving it — consults a nondeterministic source:
//
//   - time.Now / runtime wall clock: step behaviour stops being a function
//     of (schedule, config); replay diverges.
//   - math/rand (v1 or v2): unseeded global state; even seeded, it is
//     process-global and order-dependent across configurations exploring
//     concurrently. Deterministic noise must come from fd.Mix.
//   - range over a map: iteration order is randomized per run; any value
//     or ordering derived from it perturbs fingerprints and violation keys.
//   - select with a default clause: turns channel readiness — scheduler
//     state — into a branch.
//   - go statements: concurrency inside a step or inside the single-threaded
//     machine runner destroys the atomicity the model charges per step.
//
// Scope: every machine-world function (simtypes.Scope) in any package, plus
// every function in internal/explore, internal/sim and internal/fleet (see
// scopedPackages) — the hot paths and the multi-process coordinator whose
// merged results must be schedule-timing independent. internal/sim has no
// go statement at all. internal/fleet's audited exceptions are line-level:
// the worker/reader goroutines that are the process fan-out itself, and the
// coordinator's wall-clock summary stamp — checkpoint writing and result
// merging stay in scope unconditionally.
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"weakestfd/internal/analysis"
	"weakestfd/internal/analysis/simtypes"
	"weakestfd/internal/analysis/suppress"
)

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "machine steps and explorer hot paths must be deterministic: no time.Now, math/rand, map ranging, select-default or go statements",
	Run:  run,
}

// scopedPackages lists, comma-separated, the package-path suffixes whose
// every function is in scope (machine-world functions are in scope
// everywhere regardless).
const scopedPackages = "internal/explore,internal/sim,internal/fleet"

func run(pass *analysis.Pass) {
	pkgInScope := false
	for _, suf := range strings.Split(scopedPackages, ",") {
		if simtypes.PathHasSuffix(pass.Pkg.Path(), suf) {
			pkgInScope = true
			break
		}
	}
	scope := simtypes.NewScope(pass)
	sup := suppress.New(pass)
	simtypes.NonTestFuncs(pass, func(decl *ast.FuncDecl) {
		if !pkgInScope && !scope.MachineFunc(decl) {
			return
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, sup, n)
			case *ast.RangeStmt:
				if t := pass.TypesInfo.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						sup.Report(pass, n.Range,
							"map iteration order is nondeterministic: collect and sort keys (or iterate a slice) so replay, fingerprints and violation keys stay stable")
					}
				}
			case *ast.SelectStmt:
				for _, clause := range n.Body.List {
					if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
						sup.Report(pass, cc.Pos(),
							"select with default branches on scheduler state: deterministic code must not observe channel readiness")
					}
				}
			case *ast.GoStmt:
				sup.Report(pass, n.Pos(),
					"go statement in deterministic scope: machine steps and the machine runner are single-threaded by construction")
			}
			return true
		})
	})
}

// checkCall flags calls into the forbidden stdlib surfaces: time.Now and
// anything from math/rand or math/rand/v2.
func checkCall(pass *analysis.Pass, sup *suppress.Index, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.TypesInfo.ObjectOf(sel.Sel)
	if obj == nil || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "time":
		if obj.Name() == "Now" {
			sup.Report(pass, sel.Sel.Pos(),
				"time.Now in deterministic scope: step behaviour must be a pure function of (schedule, config); use sim.Time from the runner")
		}
	case "math/rand", "math/rand/v2":
		sup.Report(pass, sel.Sel.Pos(),
			"%s.%s in deterministic scope: use the pure fd.Mix noise source so runs are functions of their seeds", obj.Pkg().Path(), obj.Name())
	}
}
