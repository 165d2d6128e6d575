package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc returns the hotalloc analyzer: a function marked
// //demux:hotpath (the demuxer Lookup paths and the frame path) is meant
// to be allocation-free — the figure of merit counts memory touches, and a GC
// allocation in the lookup path would dwarf the chain scan it measures.
// Flagged constructs:
//
//   - calls into fmt (every verb allocates),
//   - make, new, and append (heap growth),
//   - string <-> []byte/[]rune conversions (copying allocations),
//   - composite literals stored into interface values (boxing escapes),
//   - the address of a composite literal (escapes to the heap),
//   - function literals (closure allocation).
//
// A deliberate, amortized allocation — growing a caller-owned result
// buffer once, pool-backed scratch — is waived with
// //demux:allowalloc <reason>.
func HotAlloc() *Analyzer {
	a := &Analyzer{
		Name: "hotalloc",
		Doc:  "flag allocating constructs in functions marked //demux:hotpath",
	}
	a.Run = func(pass *Pass) error {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || !funcIsHotpath(fn) {
					continue
				}
				checkHotFunc(pass, fn)
			}
		}
		return nil
	}
	return a
}

// report flags n unless an allowalloc waiver covers it.
func reportAlloc(pass *Pass, pos token.Pos, format string, args ...any) {
	if !pass.waived(pos, "allowalloc") {
		pass.Reportf(pos, format, args...)
	}
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	results := fn.Type.Results
	inspectStack(fn.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			reportAlloc(pass, n.Pos(), "func literal allocates a closure on the hot path")
			return false
		case *ast.CallExpr:
			checkHotCall(pass, n)
		case *ast.UnaryExpr:
			if _, ok := n.X.(*ast.CompositeLit); ok && n.Op == token.AND {
				reportAlloc(pass, n.Pos(), "address of composite literal escapes to the heap on the hot path")
			}
		case *ast.CompositeLit:
			checkBoxing(pass, n, stack, results)
		}
		return true
	})
}

// checkHotCall flags allocating calls: fmt, the growing builtins, and
// copying string conversions.
func checkHotCall(pass *Pass, call *ast.CallExpr) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := useOf(pass.Info, fun).(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				reportAlloc(pass, call.Pos(), "append may grow its backing array on the hot path")
			case "make", "new":
				reportAlloc(pass, call.Pos(), "%s allocates on the hot path", b.Name())
			}
		}
	case *ast.SelectorExpr:
		if f, ok := useOf(pass.Info, fun.Sel).(*types.Func); ok && f.Pkg() != nil && f.Pkg().Path() == "fmt" {
			reportAlloc(pass, call.Pos(), "fmt.%s allocates on the hot path", f.Name())
		}
	}
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst, src := tv.Type, pass.Info.TypeOf(call.Args[0])
		if copyingConversion(dst, src) {
			reportAlloc(pass, call.Pos(), "conversion between string and byte/rune slice copies on the hot path")
		}
	}
}

// copyingConversion reports whether a conversion from src to dst is a
// string <-> []byte/[]rune copy.
func copyingConversion(dst, src types.Type) bool {
	return (isStringType(dst) && isCharSlice(src)) || (isCharSlice(dst) && isStringType(src))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isCharSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

// checkBoxing flags a composite literal whose destination is an interface
// value: call argument, assignment, declaration, or return. Boxing copies
// the literal to the heap.
func checkBoxing(pass *Pass, lit *ast.CompositeLit, stack []ast.Node, results *ast.FieldList) {
	if types.IsInterface(pass.Info.TypeOf(lit)) || len(stack) < 2 {
		return
	}
	boxed := false
	switch p := stack[len(stack)-2].(type) {
	case *ast.CallExpr:
		boxed = interfaceParamFor(pass, p, lit)
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if rhs == lit && len(p.Lhs) == len(p.Rhs) {
				boxed = types.IsInterface(pass.Info.TypeOf(p.Lhs[i]))
			}
		}
	case *ast.ValueSpec:
		boxed = p.Type != nil && types.IsInterface(pass.Info.TypeOf(p.Type))
	case *ast.ReturnStmt:
		for i, res := range p.Results {
			if res == lit && results != nil && i < len(flattenFields(results)) {
				boxed = types.IsInterface(pass.Info.TypeOf(flattenFields(results)[i]))
			}
		}
	}
	if boxed {
		reportAlloc(pass, lit.Pos(), "composite literal is boxed into an interface on the hot path")
	}
}

// interfaceParamFor reports whether lit is passed to an interface-typed
// parameter (or converted straight to an interface type) in call.
func interfaceParamFor(pass *Pass, call *ast.CallExpr, lit *ast.CompositeLit) bool {
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		return types.IsInterface(tv.Type)
	}
	sig, ok := pass.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return false
	}
	for i, arg := range call.Args {
		if arg != lit {
			continue
		}
		if i >= sig.Params().Len() {
			i = sig.Params().Len() - 1 // variadic tail
		}
		if i < 0 {
			return false
		}
		t := sig.Params().At(i).Type()
		if sig.Variadic() && i == sig.Params().Len()-1 && call.Ellipsis == token.NoPos {
			if s, ok := t.(*types.Slice); ok {
				t = s.Elem()
			}
		}
		return types.IsInterface(t)
	}
	return false
}

// flattenFields expands a result list into one type expression per value.
func flattenFields(fl *ast.FieldList) []ast.Expr {
	var out []ast.Expr
	for _, f := range fl.List {
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			out = append(out, f.Type)
		}
	}
	return out
}
