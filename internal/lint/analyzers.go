package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// AlgorithmPackages are the packages whose code implements simulated
// algorithms: every piece of shared state they touch must live in
// memsim, which is what memsimpurity enforces.
var AlgorithmPackages = []string{
	"internal/core",
	"internal/baseline",
	"internal/queue",
	"internal/twoproc",
	"internal/localspin",
	"internal/barrier",
}

// DeterministicPackages are the packages on the simulation result
// path: schedule replay and the RMR regression gate require their
// output to be bit-identical across runs.
var DeterministicPackages = []string{
	"internal/memsim",
	"internal/harness",
	"internal/obs",
	"internal/experiments",
	"internal/trace",
	"internal/fit",
	"internal/claims",
	"internal/telemetry",
	"internal/stress",
	"cmd/explore",
	"cmd/lockstress",
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{AwaitWatch, MemsimPurity, Determinism, PhaseBalance}
}

// memsimPath identifies the simulated-memory package by import-path
// suffix, so the analyzers also work on testdata corpora and would
// survive a module rename.
const memsimPath = "internal/memsim"

// isMemsimType reports whether t (after pointer indirection) is the
// named memsim type with the given name.
func isMemsimType(t types.Type, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == memsimPath || strings.HasSuffix(p, "/"+memsimPath)
}

// procMethod returns the method name if call is a method call on
// *memsim.Proc (or memsim.Proc).
func procMethod(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	if !isMemsimType(sig.Recv().Type(), "Proc") {
		return "", false
	}
	return fn.Name(), true
}

// pkgFunc returns pkgpath.Name if call is a call of a package-level
// function (not a method), e.g. "time.Now".
func pkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	case *ast.Ident:
		obj = info.Uses[fun]
	default:
		return "", "", false
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return "", "", false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "", "", false
	}
	if fn.Pkg() == nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}
