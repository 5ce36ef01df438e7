package lint

import (
	"go/ast"
	"go/types"
)

// AtomicDiscipline enforces the //dlr:atomic access contract: an
// annotated field or variable may only be touched through its own
// atomic.* methods (epoch.Load(), epoch.Add(1)) or by passing its
// address straight into a sync/atomic package function. Everything
// else — a plain read, an assignment, a by-value copy, taking a method
// value, leaking the address — defeats the memory-ordering guarantee
// the annotation documents and is a finding.
//
// It also enforces annotation presence: the fields in requiredAtomic
// (the rotation counter the whole serving stack orders itself around)
// must carry //dlr:atomic, so removing an annotation is itself a
// finding rather than a silent loss of coverage.
var AtomicDiscipline = &Analyzer{
	Name: "atomic-discipline",
	Doc:  "flags non-atomic access to fields annotated //dlr:atomic",
	Run:  runAtomic,
}

// requiredAtomic lists the state that MUST carry //dlr:atomic.
// Matching is by package name (not path) so golden copies of the
// packages are checked identically.
var requiredAtomic = []struct{ pkg, typ, field string }{
	{"dlr", "P1", "epoch"}, // rotation counter read by every cache probe
}

func runAtomic(pass *Pass) {
	checkRequiredAtomic(pass)
	info := pass.Pkg.Info

	// First pass: collect the selector expressions that appear in a
	// sanctioned position — as the receiver of a method call on the
	// atomic value itself, or behind & as an argument to a sync/atomic
	// function.
	allowed := map[ast.Expr]bool{}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				// x.epoch.Load(): the inner selector x.epoch is the
				// sanctioned receiver use.
				if inner := atomicRef(pass, sel.X); inner != nil {
					allowed[inner] = true
				}
			}
			if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
				for _, arg := range call.Args {
					if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && u.Op.String() == "&" {
						if inner := atomicRef(pass, u.X); inner != nil {
							allowed[inner] = true
						}
					}
				}
			}
			return true
		})
	}

	// Second pass: every remaining reference to an annotated object is
	// a plain access.
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			ref := atomicRef(pass, e)
			if ref == nil || ref != e || allowed[e] {
				return true
			}
			obj := atomicRefObj(pass, e)
			pass.Reportf(e.Pos(), "%s is //dlr:atomic and may only be used through its atomic methods (or &-passed to sync/atomic), not read, written or copied directly", obj.Name())
			return false
		})
	}
}

// atomicRef returns e if it refers directly to a //dlr:atomic object
// (a selector resolving to an annotated field, or an identifier naming
// an annotated variable), nil otherwise.
func atomicRef(pass *Pass, e ast.Expr) ast.Expr {
	if atomicRefObj(pass, e) != nil {
		return ast.Unparen(e)
	}
	return nil
}

func atomicRefObj(pass *Pass, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if obj := pass.Pkg.Info.Uses[x.Sel]; obj != nil && pass.Reg.AtomicObj(obj) {
			return obj
		}
	case *ast.Ident:
		// Bare identifiers only ever name package- or local-scope
		// variables: field uses always appear under a SelectorExpr (whose
		// Sel ident is also in Uses, but is handled — and positioned — as
		// the selector). Declaration idents (Defs) are not accesses.
		obj := pass.Pkg.Info.Uses[x]
		if v, ok := obj.(*types.Var); ok && !v.IsField() && pass.Reg.AtomicObj(obj) {
			return obj
		}
	}
	return nil
}

func checkRequiredAtomic(pass *Pass) {
	pkgName := pass.Pkg.Types.Name()
	for _, req := range requiredAtomic {
		if req.pkg != pkgName {
			continue
		}
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || ts.Name.Name != req.typ {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							if name.Name != req.field {
								continue
							}
							if !pass.Reg.AtomicObj(pass.Pkg.Info.Defs[name]) {
								pass.Reportf(name.Pos(), "field %s.%s.%s orders the rotation pipeline and must be annotated //dlr:atomic", req.pkg, req.typ, req.field)
							}
						}
					}
				}
			}
		}
	}
}
