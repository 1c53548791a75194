// Package accesscheck defines the fdlint analyzer that keeps the DPOR
// dependency relation complete: inside machine-world code, every
// shared-object access must route through the AccessLog-taking Direct*
// accessors of internal/memory.
//
// The explorer (internal/explore) prunes schedules using the access sets
// machines report through sim.AccessLog. A machine that touches a register,
// snapshot cell or consensus object through an uninstrumented path —
// Inspect, a raw field — has performed communication the dependency analysis
// cannot see, and Flanagan–Godefroid/source-DPOR soundness (which assumes the
// dependency relation over-approximates real conflicts) is silently voided
// for every sweep over that protocol. This analyzer makes the convention
// machine-checked: in any function classified machine-world by
// simtypes.Scope, a call to a method of a type defined in internal/memory
// is flagged unless the method is a Direct* accessor or shape-only metadata
// (N, At, Limit, Name, String, StateFP), and any selection of a field of a
// memory shared-object type is flagged outright.
//
// internal/memory itself and _test.go files are exempt (the accessors'
// implementation and post-run assertions are where the raw state legally
// lives); everything else needs a //lint:fdlint accesscheck suppression with
// a justification to pass.
package accesscheck

import (
	"go/ast"
	"go/types"
	"strings"

	"weakestfd/internal/analysis"
	"weakestfd/internal/analysis/simtypes"
	"weakestfd/internal/analysis/suppress"
)

var Analyzer = &analysis.Analyzer{
	Name: "accesscheck",
	Doc:  "machine code must access shared memory through AccessLog-instrumented Direct* accessors",
	Run:  run,
}

// metadataMethods are the memory-type methods that expose object shape, not
// object state: calling them performs no shared-memory communication.
var metadataMethods = map[string]bool{
	"N": true, "At": true, "Limit": true, "Name": true, "String": true, "StateFP": true,
}

func run(pass *analysis.Pass) {
	if simtypes.PathHasSuffix(pass.Pkg.Path(), "internal/memory") {
		return
	}
	if simtypes.PkgWithSuffix(pass.Pkg, "internal/memory") == nil {
		return // package never touches shared objects
	}
	sup := suppress.New(pass)
	scope := simtypes.NewScope(pass)
	simtypes.NonTestFuncs(pass, func(decl *ast.FuncDecl) {
		if !scope.MachineFunc(decl) {
			return
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.ObjectOf(sel.Sel)
			if obj == nil || obj.Pkg() == nil || !simtypes.PathHasSuffix(obj.Pkg().Path(), "internal/memory") {
				return true
			}
			switch obj := obj.(type) {
			case *types.Func:
				if obj.Type().(*types.Signature).Recv() == nil {
					return true // package-level helper (constructors, CountSome, ...)
				}
				name := obj.Name()
				if strings.HasPrefix(name, "Direct") || metadataMethods[name] || !obj.Exported() {
					return true
				}
				sup.Report(pass, sel.Sel.Pos(),
					"memory.%s bypasses the AccessLog-instrumented Direct* accessors: machine code must report every shared-object access to the DPOR dependency analysis", name)
			case *types.Var:
				if !obj.IsField() || isValueType(pass.TypesInfo.TypeOf(sel.X)) {
					return true
				}
				sup.Report(pass, sel.Sel.Pos(),
					"raw field access to memory.%s: shared-object state may only be touched through AccessLog-instrumented Direct* accessors", obj.Name())
			}
			return true
		})
	})
}

// isValueType reports whether t is one of memory's plain value types (Opt),
// whose fields are process-local data, not shared-object state.
func isValueType(t types.Type) bool {
	if t == nil {
		return true
	}
	return simtypes.IsNamed(t, "internal/memory", "Opt")
}
