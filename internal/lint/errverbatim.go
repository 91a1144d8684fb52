package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// ErrVerbatim enforces verbatim propagation of context cancellation
// errors.
//
// Contract (DESIGN.md): callers distinguish "the user cancelled" from
// "the computation failed" with errors.Is(err, context.Canceled), and
// the sweep coordinator drops cancelled shards instead of recording
// them as failures. That test only works if every layer between
// ctx.Done() and the caller returns the context error verbatim. Three
// shapes break the chain, and ErrVerbatim flags them all:
//
//   - wrapping: fmt.Errorf("...: %w", ctx.Err()) changes nothing for
//     errors.Is but invites the next refactor to drop the %w; the
//     sanctioned idiom is to return ctx.Err() bare and let the caller
//     add context;
//   - replacing: returning errors.New/fmt.Errorf-fabricated errors
//     from a cancellation branch (case <-ctx.Done(), if ctx.Err() !=
//     nil) discards the sentinel entirely;
//   - laundering through a helper: passing the context error to a
//     function whose ErrWrapFact says it folds that parameter into a new
//     error — in this package or another, through any depth of
//     wrappers.
//
// Values are tracked through locals (err := ctx.Err()), and
// context.Canceled, context.DeadlineExceeded, context.Cause(ctx) and
// ctx.Err() all count as cancellation errors.
var ErrVerbatim = &analysis.Analyzer{
	Name: "errverbatim",
	Doc:  "require context cancellation errors to be returned verbatim, not wrapped or replaced",
	Run:  runErrVerbatim,
}

func runErrVerbatim(pass *analysis.Pass) error {
	for _, f := range pass.SourceFiles() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			cancel := cancelErrObjs(pass, fd.Body)
			checkErrVerbatim(pass, fd, cancel)
		}
	}
	return nil
}

// cancelErrObjs collects local objects holding a context cancellation
// error: idents assigned (directly or through other tracked idents)
// from ctx.Err(), context.Cause, or the context sentinels. Iterated to
// a fixpoint so err2 := err is tracked too.
func cancelErrObjs(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	objs := map[types.Object]bool{}
	for {
		changed := false
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) != len(st.Rhs) {
					return true
				}
				for i, rhs := range st.Rhs {
					id, ok := st.Lhs[i].(*ast.Ident)
					if !ok || !isCancelExpr(pass, rhs, objs) {
						continue
					}
					if obj := pass.ObjectOf(id); obj != nil && !objs[obj] {
						objs[obj] = true
						changed = true
					}
				}
			case *ast.ValueSpec:
				if len(st.Names) != len(st.Values) {
					return true
				}
				for i, rhs := range st.Values {
					if !isCancelExpr(pass, rhs, objs) {
						continue
					}
					if obj := pass.ObjectOf(st.Names[i]); obj != nil && !objs[obj] {
						objs[obj] = true
						changed = true
					}
				}
			}
			return true
		})
		if !changed {
			return objs
		}
	}
}

// isCancelExpr reports whether e evaluates to a context cancellation
// error: ctx.Err(), context.Cause(ctx), the Canceled/DeadlineExceeded
// sentinels, or an ident tracked in objs.
func isCancelExpr(pass *analysis.Pass, e ast.Expr, objs map[types.Object]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := pass.ObjectOf(e)
		if obj == nil {
			return false
		}
		if objs[obj] {
			return true
		}
		return (obj.Name() == "Canceled" || obj.Name() == "DeadlineExceeded") && pkgPathIs(obj.Pkg(), "context")
	case *ast.SelectorExpr:
		obj := pass.ObjectOf(e.Sel)
		if obj == nil {
			return false
		}
		return (obj.Name() == "Canceled" || obj.Name() == "DeadlineExceeded") && pkgPathIs(obj.Pkg(), "context")
	case *ast.CallExpr:
		fn := calleeFunc(pass, e)
		if fn == nil {
			return false
		}
		return (fn.Name() == "Err" || fn.Name() == "Cause") && pkgPathIs(fn.Pkg(), "context")
	}
	return false
}

// checkErrVerbatim walks one declaration and reports the three
// verbatim-contract violations.
func checkErrVerbatim(pass *analysis.Pass, fd *ast.FuncDecl, cancel map[types.Object]bool) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(pass, n)
			if fn == nil {
				return true
			}
			// Rule 1: wrapping via fmt.Errorf.
			if fn.Name() == "Errorf" && pkgPathIs(fn.Pkg(), "fmt") {
				for _, arg := range n.Args[min(1, len(n.Args)):] {
					if isCancelExpr(pass, arg, cancel) {
						pass.Reportf(n.Pos(), "%s wraps the context cancellation error in fmt.Errorf: return ctx.Err() verbatim so errors.Is(err, context.Canceled) holds for every caller", fd.Name.Name)
						return true
					}
				}
				return true
			}
			// Rule 2: laundering through a wrapper helper.
			var wf ErrWrapFact
			if pass.ImportObjectFact(fn, &wf) {
				for i, arg := range n.Args {
					if i < 32 && wf.Params&(1<<uint(i)) != 0 && isCancelExpr(pass, arg, cancel) {
						pass.Reportf(n.Pos(), "%s passes the context cancellation error to %s, which wraps it into a new error: return ctx.Err() verbatim so errors.Is(err, context.Canceled) holds for every caller", fd.Name.Name, calleeLabel(fn))
						return true
					}
				}
			}
		case *ast.CommClause:
			// Rule 3a: case <-ctx.Done(): return <fabricated error>.
			if commObservesDone(pass, n.Comm) {
				reportFabricatedReturns(pass, fd, n.Body, cancel)
			}
			return true
		case *ast.IfStmt:
			// Rule 3b: if ctx.Err() != nil { return <fabricated error> }.
			if condObservesCancel(pass, n.Cond, cancel) {
				reportFabricatedReturns(pass, fd, []ast.Stmt{n.Body}, cancel)
			}
			return true
		}
		return true
	})
}

// commObservesDone reports whether a select comm statement receives
// from ctx.Done().
func commObservesDone(pass *analysis.Pass, comm ast.Stmt) bool {
	var recv ast.Expr
	switch st := comm.(type) {
	case *ast.ExprStmt:
		recv = st.X
	case *ast.AssignStmt:
		if len(st.Rhs) == 1 {
			recv = st.Rhs[0]
		}
	}
	un, ok := ast.Unparen(recv).(*ast.UnaryExpr)
	if !ok || un.Op != token.ARROW {
		return false
	}
	call, ok := ast.Unparen(un.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(pass, call)
	return fn != nil && fn.Name() == "Done" && pkgPathIs(fn.Pkg(), "context")
}

// condObservesCancel reports whether cond is a nil check on a
// cancellation error: ctx.Err() != nil, err != nil with err tracked.
func condObservesCancel(pass *analysis.Pass, cond ast.Expr, cancel map[types.Object]bool) bool {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || bin.Op != token.NEQ {
		return false
	}
	x, y := ast.Unparen(bin.X), ast.Unparen(bin.Y)
	if isNilIdent(pass, y) {
		return isCancelExpr(pass, x, cancel)
	}
	if isNilIdent(pass, x) {
		return isCancelExpr(pass, y, cancel)
	}
	return false
}

func isNilIdent(pass *analysis.Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pass.ObjectOf(id).(*types.Nil)
	return isNil
}

// reportFabricatedReturns flags return statements inside a
// cancellation branch whose error result is fabricated — errors.New,
// or fmt.Errorf that does not carry the context error. Returns that
// propagate a tracked cancellation value verbatim are the sanctioned
// shape and pass untouched.
func reportFabricatedReturns(pass *analysis.Pass, fd *ast.FuncDecl, body []ast.Stmt, cancel map[types.Object]bool) {
	for _, st := range body {
		ast.Inspect(st, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			for _, res := range ret.Results {
				call, ok := ast.Unparen(res).(*ast.CallExpr)
				if !ok {
					continue
				}
				fn := calleeFunc(pass, call)
				if fn == nil {
					continue
				}
				fabricated := fn.Name() == "New" && pkgPathIs(fn.Pkg(), "errors")
				if fn.Name() == "Errorf" && pkgPathIs(fn.Pkg(), "fmt") {
					fabricated = true
					for _, arg := range call.Args {
						if isCancelExpr(pass, arg, cancel) {
							fabricated = false // rule 1 reports the wrap instead
						}
					}
				}
				if fabricated {
					pass.Reportf(ret.Pos(), "%s observes cancellation but returns a fabricated error, discarding the context sentinel: return ctx.Err() verbatim so errors.Is(err, context.Canceled) holds for every caller", fd.Name.Name)
				}
			}
			return true
		})
	}
}

// wrapMask returns the bitmask of fd's parameters that reach an
// error-wrap site — a fmt.Errorf argument, or an argument of a callee
// whose ErrWrapFact wraps it — given the facts exported so far.
func wrapMask(pass *analysis.Pass, fd *ast.FuncDecl) uint32 {
	errType := types.Universe.Lookup("error").Type()
	params := map[types.Object]uint{}
	i := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				obj := pass.ObjectOf(name)
				if obj != nil && i < 32 && types.AssignableTo(obj.Type(), errType) {
					params[obj] = uint(i)
				}
				i++
			}
			if len(field.Names) == 0 {
				i++
			}
		}
	}
	if len(params) == 0 {
		return 0
	}
	var mask uint32
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil {
			return true
		}
		wraps := func(arg ast.Expr) {
			id, ok := ast.Unparen(arg).(*ast.Ident)
			if !ok {
				return
			}
			if bit, tracked := params[pass.ObjectOf(id)]; tracked {
				mask |= 1 << bit
			}
		}
		if fn.Name() == "Errorf" && pkgPathIs(fn.Pkg(), "fmt") {
			for _, arg := range call.Args[min(1, len(call.Args)):] {
				wraps(arg)
			}
			return true
		}
		var wf ErrWrapFact
		if pass.ImportObjectFact(fn, &wf) {
			for j, arg := range call.Args {
				if j < 32 && wf.Params&(1<<uint(j)) != 0 {
					wraps(arg)
				}
			}
		}
		return true
	})
	return mask
}

// exportErrWrapFacts publishes an ErrWrapFact for every declaration
// that wraps one of its parameters into a new error. Each round
// recomputes every mask from the previous round's facts, then exports
// them together, until no mask changes: a wrapper chain of any depth
// is followed, whatever order the declarations are visited in. Masks
// only grow, so the rounds end.
func exportErrWrapFacts(pass *analysis.Pass) {
	decls := localDeclsFor(pass)
	prev := map[*types.Func]uint32{}
	for {
		next := make(map[*types.Func]uint32, len(decls))
		changed := false
		for fn, fd := range decls {
			next[fn] = wrapMask(pass, fd)
			changed = changed || next[fn] != prev[fn]
		}
		if !changed {
			return
		}
		for fn, mask := range next {
			if mask != 0 {
				pass.ExportObjectFact(fn, &ErrWrapFact{Params: mask})
			}
		}
		prev = next
	}
}
