// Package simtypes resolves the simulator's types from a type-checked
// package, so the fdlint analyzers can recognize machine-world code no
// matter which module path it lives under (the real repo, or an
// analysistest stub tree laid out under testdata/src/weakestfd/...).
// All lookups are by package-path suffix ("internal/sim", "internal/memory",
// ...), never by exact module path.
package simtypes

import (
	"go/ast"
	"go/types"
	"strings"

	"weakestfd/internal/analysis"
)

// PathHasSuffix reports whether package path ends with the given
// slash-separated suffix (or equals it).
func PathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// PkgWithSuffix returns pkg itself or one of its direct imports whose path
// ends in suffix, or nil.
func PkgWithSuffix(pkg *types.Package, suffix string) *types.Package {
	if PathHasSuffix(pkg.Path(), suffix) {
		return pkg
	}
	for _, imp := range pkg.Imports() {
		if PathHasSuffix(imp.Path(), suffix) {
			return imp
		}
	}
	return nil
}

// IsNamed reports whether t — after stripping one pointer level and any
// aliases — is the named type pkgSuffix.name.
func IsNamed(t types.Type, pkgSuffix, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && PathHasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// Scope classifies functions as machine-world code: the code whose
// shared-object accesses and determinism the explorer's soundness argument
// quantifies over.
type Scope struct {
	pass        *analysis.Pass
	stepMachine *types.Interface // sim.StepMachine, nil if sim is not imported
}

// NewScope builds the classifier for one pass.
func NewScope(pass *analysis.Pass) *Scope {
	s := &Scope{pass: pass}
	if sim := PkgWithSuffix(pass.Pkg, "internal/sim"); sim != nil {
		if obj := sim.Scope().Lookup("StepMachine"); obj != nil {
			s.stepMachine, _ = obj.Type().Underlying().(*types.Interface)
		}
	}
	return s
}

// implementsStepMachine reports whether t or *t satisfies sim.StepMachine.
func (s *Scope) implementsStepMachine(t types.Type) bool {
	if s.stepMachine == nil || t == nil {
		return false
	}
	if types.Implements(t, s.stepMachine) {
		return true
	}
	if _, isPtr := t.(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(t), s.stepMachine)
	}
	return false
}

// machineWorldType reports whether t is one of the types whose presence in a
// signature marks machine-world code: the instrumentation carriers
// (*sim.AccessLog, *sim.QuerySeam, sim.MachineContext) and the machine
// runner's inputs (sim.StepMachine, sim.MachineTaskSet, []sim.StepMachine,
// []sim.MachineTaskSet).
func (s *Scope) machineWorldType(t types.Type) bool {
	if sl, ok := types.Unalias(t).(*types.Slice); ok {
		t = sl.Elem()
	}
	for _, name := range [...]string{"AccessLog", "QuerySeam", "MachineContext", "StepMachine", "MachineTaskSet"} {
		if IsNamed(t, "internal/sim", name) {
			return true
		}
	}
	return false
}

// MachineFunc reports whether decl is machine-world code:
//
//   - a method on a type implementing sim.StepMachine (the Step/Init/Decision
//     bodies and every helper method on the same automaton),
//   - a method on a struct carrying a *sim.AccessLog or *sim.QuerySeam field
//     (converge.Machine and machine-embedded helpers bind the run's
//     instrumentation that way), or
//   - a function whose parameters mention a machine-world type (the machine
//     runner itself and log-threading helpers).
func (s *Scope) MachineFunc(decl *ast.FuncDecl) bool {
	info := s.pass.TypesInfo
	if decl.Recv != nil && len(decl.Recv.List) == 1 {
		rt := info.TypeOf(decl.Recv.List[0].Type)
		if s.implementsStepMachine(rt) {
			return true
		}
		base := rt
		if p, ok := base.(*types.Pointer); ok {
			base = p.Elem()
		}
		if st, ok := types.Unalias(base).Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				ft := st.Field(i).Type()
				if IsNamed(ft, "internal/sim", "AccessLog") || IsNamed(ft, "internal/sim", "QuerySeam") {
					return true
				}
			}
		}
	}
	if decl.Type.Params != nil {
		for _, fld := range decl.Type.Params.List {
			if s.machineWorldType(info.TypeOf(fld.Type)) {
				return true
			}
		}
	}
	return false
}

// NonTestFuncs walks every function declaration of the pass that is not in a
// _test.go file, invoking fn with the declaration. Analyzers use it as their
// traversal root: generated test harness files and test helpers are outside
// every fdlint invariant's scope.
func NonTestFuncs(pass *analysis.Pass, fn func(*ast.FuncDecl)) {
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
