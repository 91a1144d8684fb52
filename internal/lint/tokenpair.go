package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// TokenPair checks that every workpool token acquired is released on
// every path of the acquiring function.
//
// Contract (DESIGN.md): the shared token budget bounds machine-wide
// active work; one leaked token permanently shrinks the budget for
// every in-flight run, and a leaked-on-error token is precisely how a
// cancelled sweep would deadlock its siblings. The check is a forward
// "token held" dataflow over the function's CFG: the acquire makes the
// token held, a Release on the same receiver — or a `go` statement
// handing it to a literal that releases it — ends the hold, and the
// acquire is flagged when the token can still be held where a path
// reaches the function's exit, or when a loop comes back to the acquire
// still holding. A deferred Release covers every exit. The error
// return of AcquireCtx holds no token, so the then-branch of
//
//	if err := tok.AcquireCtx(ctx); err != nil { return err }
//
// — or of an `if err != nil` directly after `err := tok.AcquireCtx(ctx)`
// — starts not held. Paths that panic or exit the process are not
// leaks: the process is unwinding.
var TokenPair = &analysis.Analyzer{
	Name: "tokenpair",
	Doc:  "flag workpool.Tokens.Acquire/AcquireCtx calls whose token can still be held at a function exit",
	Run:  runTokenPair,
}

func runTokenPair(pass *analysis.Pass) error {
	cfgs := analysis.NewCFGs(terminalForCFG)
	for _, f := range pass.SourceFiles() {
		for _, u := range analysis.Units(f) {
			walkShallow(u.Body(), func(n ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Acquire" && sel.Sel.Name != "AcquireCtx") || !isTokensType(pass.TypeOf(sel.X)) {
					return
				}
				recv := types.ExprString(sel.X)
				if tokenLeaks(pass, u.Body(), cfgs.For(u.Body()), call, recv) {
					pass.Reportf(call.Pos(), "Tokens.%s is not released on every path; defer %s.Release() or release on all branches (a leaked token shrinks the shared budget for every in-flight run)", sel.Sel.Name, recv)
				}
			})
		}
	}
	return nil
}

// tokenLeaks solves the token-held flow for the acquire call on recv.
func tokenLeaks(pass *analysis.Pass, body *ast.BlockStmt, cfg *analysis.CFG, call *ast.CallExpr, recv string) bool {
	for _, d := range cfg.Defers {
		if releases(d.Call, recv) {
			return false
		}
	}
	notHeld := errBranches(pass, body, cfg, call)
	reacquired := false
	held := analysis.Solve(cfg, analysis.Problem[bool]{
		Dir:   analysis.Forward,
		Merge: func(a, b bool) bool { return a || b },
		Equal: func(a, b bool) bool { return a == b },
		Transfer: func(b *analysis.Block, h bool) bool {
			h = h && !notHeld[b]
			for _, n := range b.Nodes {
				if gs, ok := n.(*ast.GoStmt); ok && releases(gs.Call, recv) {
					h = false
					continue
				}
				if rs, ok := n.(*ast.RangeStmt); ok {
					n = rs.X // the loop head carries the whole loop; only the range expression runs here
				}
				walkShallow(n, func(m ast.Node) {
					switch {
					case m == call:
						// The flow only grows, so a hold seen here also
						// holds at the fixpoint.
						reacquired = reacquired || h
						h = true
					case isReleaseCall(m, recv):
						h = false
					}
				})
			}
			return h && !b.Terminal
		},
	})
	return reacquired || held[cfg.Exit]
}

// errBranches returns the then-blocks of the if statements that test
// the error of call, an AcquireCtx: `call != nil`, or `err != nil`
// where err is assigned from call by the if's init or by the statement
// right before the if. Those branches run only when no token was taken.
func errBranches(pass *analysis.Pass, body *ast.BlockStmt, cfg *analysis.CFG, call *ast.CallExpr) map[*analysis.Block]bool {
	testsErr := func(cond ast.Expr, assign ast.Stmt) bool {
		bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
		if !ok || bin.Op != token.NEQ {
			return false
		}
		as, isAssign := assign.(*ast.AssignStmt)
		fromCall := isAssign && len(as.Rhs) == 1 && ast.Unparen(as.Rhs[0]) == call
		for _, x := range []ast.Expr{bin.X, bin.Y} {
			id, isIdent := ast.Unparen(x).(*ast.Ident)
			if ast.Unparen(x) == call || fromCall && isIdent && mentionsObject(pass, as.Lhs[0], pass.ObjectOf(id)) {
				return true
			}
		}
		return false
	}
	conds := map[ast.Node]bool{}
	walkShallow(body, func(n ast.Node) {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.IfStmt:
			if testsErr(n.Cond, n.Init) {
				conds[n.Cond] = true
			}
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		}
		for i := 1; i < len(list); i++ {
			if ifs, ok := list[i].(*ast.IfStmt); ok && testsErr(ifs.Cond, list[i-1]) {
				conds[ifs.Cond] = true
			}
		}
	})
	out := map[*analysis.Block]bool{}
	for _, b := range cfg.Blocks {
		if len(b.Nodes) > 0 && conds[b.Nodes[len(b.Nodes)-1]] {
			out[b.Succs[0]] = true // BuildCFG wires an if's then-branch first
		}
	}
	return out
}

// releases reports whether a deferred or spawned call releases recv's
// token: it is recv.Release() itself, or a literal whose body calls it.
func releases(call *ast.CallExpr, recv string) bool {
	lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit)
	if !ok {
		return isReleaseCall(call, recv)
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		found = found || isReleaseCall(n, recv)
		return !found
	})
	return found
}

// isReleaseCall recognizes <recv>.Release(...) by rendered receiver.
func isReleaseCall(n ast.Node, recv string) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Release" && types.ExprString(sel.X) == recv
}

// isTokensType recognizes workpool.Tokens (possibly behind a pointer).
func isTokensType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Tokens" && pkgPathIs(obj.Pkg(), "workpool")
}
