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

// AtomicPub returns the atomicpub analyzer, the access discipline for
// atomic fields: a struct field marked //demux:atomic may be touched only
// through atomic operations — a method call on a sync/atomic wrapper type
// (f.Load(), f.Add(1), ...) or its address passed to an atomic function
// (atomic.AddUint64(&s.f, 1)). Any plain read, write, increment, or copy
// of the field is flagged: one non-atomic access to a counter that other
// goroutines update atomically is a data race the type system does not
// see. The subjects are the telemetry stripe words and ShardedSequent's
// listener-path counters.
//
// A writer-side access already serialized by the structure's lock can be
// waived with //demux:atomicguarded <reason>.
//
// Marked fields are unexported, so in-package analysis sees every access.
func AtomicPub() *Analyzer {
	a := &Analyzer{
		Name: "atomicpub",
		Doc:  "require atomic access to //demux:atomic fields",
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
				if !atomicAccess(sel, stack) && !pass.waived(sel.Pos(), "atomicguarded") {
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
