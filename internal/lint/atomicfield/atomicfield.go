// Package atomicfield enforces all-or-nothing atomicity per struct
// field: a field accessed through sync/atomic anywhere (atomic.AddUint64,
// atomic.LoadPointer, ...) must be accessed through sync/atomic
// everywhere. A mixed regime — `atomic.AddUint64(&s.n, 1)` on one
// goroutine and `s.n++` on another — is a data race the race detector
// only catches when both sides happen to run in a -race test; beacon
// publication and the progress counters depend on these fields being
// torn-free.
//
// The analyzer collects the set of atomically-accessed fields from every
// sync/atomic call site (locally and, through facts, in analyzed
// dependencies), then flags plain reads/writes of those fields in
// non-test files. Fields of the typed atomic kinds (atomic.Uint64,
// atomic.Pointer[T], ...) are safe by construction and out of scope.
//
// The escape hatch for a reviewed plain access — e.g. zeroing a counter
// before the value is published — is an //itp:nonatomic directive with a
// reason.
package atomicfield

import (
	"go/ast"
	"go/types"

	"itpsim/internal/lint/lintcore"
)

// Analyzer is the atomicfield check.
var Analyzer = &lintcore.Analyzer{
	Name: "atomicfield",
	Doc:  "a struct field accessed via sync/atomic anywhere must be accessed atomically everywhere",
	Run:  run,
}

func run(pass *lintcore.Pass) error {
	pkg := pass.Pkg

	// Phase 1: find every field addressed by a sync/atomic call in this
	// package, and remember those argument selectors so phase 2 does not
	// flag them.
	atomicFields := map[string]bool{}
	atomicArgs := map[*ast.SelectorExpr]bool{}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isSyncAtomicCall(pkg.Info, call) {
				return true
			}
			for _, arg := range call.Args {
				// The addressed operand is &x.F (possibly parenthesized).
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op.String() != "&" {
					continue
				}
				sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if key, ok := fieldKey(pkg.Info, sel); ok {
					atomicFields[key] = true
					atomicArgs[sel] = true
				}
			}
			return true
		})
	}

	// Export this package's contribution, then union in the atomic field
	// sets of analyzed dependencies.
	for key := range atomicFields {
		pass.ExportFact(key, "atomic")
	}
	for _, dep := range pass.FactPackages() {
		for _, key := range pass.FactKeys(dep) {
			atomicFields[key] = true
		}
	}
	if len(atomicFields) == 0 {
		return nil
	}

	// Phase 2: flag plain accesses.
	dirs := pkg.Directives()
	for _, file := range pkg.Files {
		if pkg.IsTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || atomicArgs[sel] {
				return true
			}
			key, ok := fieldKey(pkg.Info, sel)
			if !ok || !atomicFields[key] {
				return true
			}
			if dirs.Covers(sel.Pos(), lintcore.DirNonatomic) {
				return true
			}
			pass.Reportf(sel.Pos(), "field %s is accessed via sync/atomic elsewhere; this plain access races with it (//itp:nonatomic with a reason if the value is provably unpublished here)", key)
			return true
		})
	}
	return nil
}

// isSyncAtomicCall reports whether call is a direct call of a sync/atomic
// package function (the old-style API taking a *T first argument).
func isSyncAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	fn := lintcore.StaticCallee(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil
}

// fieldKey names the struct field selected by sel as
// "pkgpath.RecvType.Field", stable across packages and load modes. It
// returns ok=false for non-field selections and for fields of anonymous
// struct types (those cannot be shared across packages by name; the
// local atomicArgs set still covers their atomic sites, and anonymous
// structs shared across goroutines are already beyond this analyzer's
// remit).
func fieldKey(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return "", false
	}
	field, ok := s.Obj().(*types.Var)
	if !ok || field.Pkg() == nil {
		return "", false
	}
	owner := ownerName(s)
	if owner == "" {
		return "", false
	}
	return field.Pkg().Path() + "." + owner + "." + field.Name(), true
}

// ownerName returns the name of the named type whose struct declares the
// selected field ("" when the struct is anonymous). s.Index() drives the
// walk through embedded fields: all hops but the last are embeddings,
// and the struct reached after them declares the field.
func ownerName(s *types.Selection) string {
	t := s.Recv()
	idx := s.Index()
	for i := 0; i < len(idx)-1; i++ {
		t = derefNamedStructField(t, idx[i])
		if t == nil {
			return ""
		}
	}
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			if _, ok := u.Underlying().(*types.Struct); ok {
				return u.Obj().Name()
			}
			t = u.Underlying()
		default:
			return ""
		}
	}
}

// derefNamedStructField steps one embedding hop: the type of struct
// field idx of t (pointers and named types unwrapped).
func derefNamedStructField(t types.Type, idx int) types.Type {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			t = u.Underlying()
		case *types.Struct:
			if idx < u.NumFields() {
				return u.Field(idx).Type()
			}
			return nil
		default:
			return nil
		}
	}
}
