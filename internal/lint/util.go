package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// pkgPathIs reports whether pkg is the package named by want, where want
// is either a full import path ("time") or a repo-internal leaf
// ("workpool"). Corpus packages under testdata use bare leaf paths, so
// leaf matching keeps the analyzers testable without replicating the
// module layout.
func pkgPathIs(pkg *types.Package, want string) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == want || strings.HasSuffix(p, "/"+want)
}

// calleeFunc resolves a call expression to the function or method object
// it invokes, or nil for builtins, conversions and indirect calls.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.ObjectOf(id).(*types.Func)
	return fn
}

// isPkgFunc reports whether the call invokes the named package-level
// function (e.g. pkg "time", name "Now").
func isPkgFunc(pass *analysis.Pass, call *ast.CallExpr, pkg, name string) bool {
	fn := calleeFunc(pass, call)
	return fn != nil && fn.Name() == name && pkgPathIs(fn.Pkg(), pkg)
}

// mentionsObject reports whether expr references obj.
func mentionsObject(pass *analysis.Pass, expr ast.Expr, obj types.Object) bool {
	if obj == nil || expr == nil {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// isInteger reports whether t's underlying type is an integer kind —
// the types whose addition is exact and order-independent, unlike
// floats, whose rounding makes sums depend on summation order.
func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := pass.ObjectOf(id).(*types.Builtin)
	return isBuiltin
}

// walkShallow visits every node of the function body without descending
// into nested function literals.
func walkShallow(n ast.Node, visit func(ast.Node)) {
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok && c != n {
			return false
		}
		if c != nil {
			visit(c)
		}
		return true
	})
}

// containsNode reports whether target lies within root.
func containsNode(root, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// pathTo returns the ancestor chain from root down to target inclusive,
// or nil.
func pathTo(root ast.Node, target ast.Node) []ast.Node {
	var stack, found []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if n == target {
			found = append([]ast.Node(nil), stack...)
			return false
		}
		return true
	})
	return found
}

// isTerminalCall recognizes calls that unwind or end the process:
// panic, os.Exit, log.Fatal*.
func isTerminalCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if pkg, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			if pkg.Name == "os" && fun.Sel.Name == "Exit" {
				return true
			}
			if pkg.Name == "log" && (fun.Sel.Name == "Fatal" || fun.Sel.Name == "Fatalf" || fun.Sel.Name == "Fatalln") {
				return true
			}
		}
	}
	return false
}
