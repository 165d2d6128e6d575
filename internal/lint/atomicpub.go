package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// atomicMethods are the method names of the sync/atomic wrapper types
// (atomic.Pointer, atomic.Uint64, ...) that constitute a legal touch of a
// marked field.
var atomicMethods = map[string]bool{
	"Load":           true,
	"Store":          true,
	"Add":            true,
	"And":            true,
	"Or":             true,
	"Swap":           true,
	"CompareAndSwap": true,
}

// publishMethods are the wrapper methods that make a value visible to
// lock-free readers; their final argument is the published value.
var publishMethods = map[string]bool{
	"Store":          true,
	"Swap":           true,
	"CompareAndSwap": true,
}

// AtomicPub returns the atomicpub analyzer, the guard on the atomic
// publication protocol. It subsumes the retired atomicfield analyzer and
// adds the ordering half of the contract:
//
//  1. Access discipline: a struct field marked //demux:atomic may be
//     touched only through atomic operations — a method call on a
//     sync/atomic wrapper type (f.Load(), f.Store(x), ...) or its address
//     passed to an atomic function (atomic.AddUint64(&s.f, 1)). Any plain
//     read, write, increment, or copy of the field is flagged: one
//     non-atomic access to a published chain pointer or cache word would
//     break the lock-free reader contract silently.
//  2. Store-before-publish ordering: once a pointer has been published
//     through a marked field (f.Store(p), f.Swap(p), the new value of
//     f.CompareAndSwap(_, p)), the publishing function must not keep
//     writing through it. The COW swap sites in internal/rcu and
//     internal/overload build the replacement chain or table pair
//     completely and then publish; a write after the Store would hand
//     lock-free readers a half-built value. The check is positional
//     within one function body — a write that textually follows the
//     publishing call and targets the published pointer is flagged.
//
// A writer-side access already serialized by the structure's lock can be
// waived with //demux:atomicguarded <reason>; the same waiver covers a
// deliberate post-publication write (e.g. writer-private bookkeeping in
// memory readers never follow).
//
// Marked fields are unexported, so in-package analysis sees every access.
func AtomicPub() *Analyzer {
	a := &Analyzer{
		Name: "atomicpub",
		Doc:  "require atomic access to //demux:atomic fields and store-before-publish ordering at their swap sites",
	}
	a.Run = func(pass *Pass) error {
		// Marked fields are matched by declaration position, not object
		// identity: in a generic type the field objects
		// seen inside method bodies belong to the instantiated type, which
		// shares the origin's source position but not its *types.Var.
		marked := make(map[token.Pos]string)
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					if !fieldIsAtomic(field) {
						continue
					}
					for _, name := range field.Names {
						if obj := pass.Info.Defs[name]; obj != nil {
							marked[obj.Pos()] = obj.Name()
						}
					}
				}
				return true
			})
		}
		if len(marked) == 0 {
			return nil
		}
		for _, f := range pass.Files {
			inspectStack(f, func(n ast.Node, stack []ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				s := pass.Info.Selections[sel]
				if s == nil || s.Kind() != types.FieldVal {
					return true
				}
				name, ok := marked[s.Obj().Pos()]
				if !ok {
					return true
				}
				if atomicAccess(sel, stack) {
					checkPublishOrdering(pass, sel, stack, name)
					return true
				}
				if !pass.waived(sel.Pos(), "atomicguarded") {
					pass.Reportf(sel.Pos(), "field %s is marked //demux:atomic; access it with atomic operations (Load/Store/Add/Swap/CompareAndSwap or &%s passed to sync/atomic), or waive a lock-guarded access with //demux:atomicguarded <reason>", name, name)
				}
				return true
			})
		}
		return nil
	}
	return a
}

// atomicAccess reports whether the marked-field selector (last node of
// stack) appears in a context that preserves the atomic protocol: as the
// receiver of an atomic-wrapper method call, or with its address taken
// (the pointer then flows into sync/atomic functions or Load/Store
// helpers, which enforce atomicity themselves).
func atomicAccess(sel *ast.SelectorExpr, stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	switch p := stack[len(stack)-2].(type) {
	case *ast.UnaryExpr:
		return p.Op == token.AND
	case *ast.SelectorExpr:
		if p.X != sel || !atomicMethods[p.Sel.Name] {
			return false
		}
		if len(stack) < 3 {
			return false
		}
		call, ok := stack[len(stack)-3].(*ast.CallExpr)
		return ok && call.Fun == p
	}
	return false
}

// checkPublishOrdering flags writes through a pointer after it was
// published via the marked field's Store/Swap/CompareAndSwap. sel is the
// marked-field selector; the stack ends [..., call, method-sel, sel].
func checkPublishOrdering(pass *Pass, sel *ast.SelectorExpr, stack []ast.Node, fieldName string) {
	if len(stack) < 3 {
		return
	}
	msel, ok := stack[len(stack)-2].(*ast.SelectorExpr)
	if !ok || msel.X != sel || !publishMethods[msel.Sel.Name] {
		return
	}
	call, ok := stack[len(stack)-3].(*ast.CallExpr)
	if !ok || call.Fun != msel || len(call.Args) == 0 {
		return
	}
	// The published value is the call's final argument. Two trackable
	// shapes: a pointer-typed local identifier (writes through it are
	// flagged) and &local (writes to the local itself are flagged).
	var (
		obj       types.Object
		derefOnly bool // only *p / p.f / p[i] writes count, not p = ...
	)
	switch arg := call.Args[len(call.Args)-1].(type) {
	case *ast.Ident:
		if o, okv := useOf(pass.Info, arg).(*types.Var); okv {
			if _, isPtr := o.Type().Underlying().(*types.Pointer); isPtr {
				obj, derefOnly = o, true
			}
		}
	case *ast.UnaryExpr:
		if id, okID := arg.X.(*ast.Ident); okID && arg.Op == token.AND {
			if o, okv := useOf(pass.Info, id).(*types.Var); okv {
				obj = o
			}
		}
	}
	if obj == nil {
		return
	}
	body := enclosingFuncBody(stack)
	if body == nil {
		return
	}
	after := call.End()
	ast.Inspect(body, func(n ast.Node) bool {
		var lhs []ast.Expr
		switch st := n.(type) {
		case *ast.AssignStmt:
			lhs = st.Lhs
		case *ast.IncDecStmt:
			lhs = []ast.Expr{st.X}
		default:
			return true
		}
		for _, l := range lhs {
			if l.Pos() <= after {
				continue
			}
			id, indirect := rootOf(l)
			if id == nil || useOf(pass.Info, id) != obj {
				continue
			}
			if derefOnly && !indirect {
				continue // reassigning the pointer variable itself is fine
			}
			if !pass.waived(l.Pos(), "atomicguarded") {
				pass.Reportf(l.Pos(), "%s was published through //demux:atomic field %s above; writing it after the publish hands lock-free readers a half-built value — finish all stores first, or waive with //demux:atomicguarded <reason>", id.Name, fieldName)
			}
		}
		return true
	})
}

// rootOf unwraps an assignment target to its base identifier, reporting
// whether the path goes through a dereference, field, or index (i.e.
// writes memory the identifier points at or contains, not the variable
// binding itself).
func rootOf(e ast.Expr) (*ast.Ident, bool) {
	indirect := false
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, indirect
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e, indirect = x.X, true
		case *ast.SelectorExpr:
			e, indirect = x.X, true
		case *ast.IndexExpr:
			e, indirect = x.X, true
		default:
			return nil, indirect
		}
	}
}
