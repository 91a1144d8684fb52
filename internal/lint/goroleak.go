package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Goroleak checks that every goroutine launched in library code is
// joined: its termination is observable by the function that owns it.
//
// Contract (DESIGN.md): goroutine lifecycles nest — Sweep returns only
// after every handler it spawned has exited, a pipeline stage's workers
// die before the stage reports, and teardown never races a straggler
// (the accept-loop/WaitGroup teardown race was exactly an unjoined
// accept loop outliving ln.Close()). A goroutine counts as joined when
// one of the following holds:
//
//   - WaitGroup pairing: wg.Add sits before the `go` statement,
//     wg.Done runs on every exit path of the body (deferred, or
//     must-reach on the CFG), and wg.Wait is reachable in the enclosing
//     declaration (or the group belongs to an outer owner);
//   - close-join: the body closes a local channel on every exit path
//     (defer close(ch)) and the enclosing declaration receives from it;
//   - send-join: the body's exit is a send on a local channel the
//     enclosing declaration (or a closure it returns) receives from;
//   - bounded lifetime: the body receives from ctx.Done() or a
//     done-shaped channel (chan struct{}), or blocks on a WaitGroup
//     Wait (the watcher-over-a-worker-group shape), so a signal the
//     body already owns reaps it;
//   - a named callee handed the caller's context or a channel — the
//     callee owns its termination through them — or whose own body is
//     bounded in the sense above, as its BoundedFact records.
var Goroleak = &analysis.Analyzer{
	Name: "goroleak",
	Doc:  "flag goroutines in library code with no join: no WaitGroup pairing, no close/send-join, no ctx/done bound",
	Run:  runGoroleak,
}

func runGoroleak(pass *analysis.Pass) error {
	cfgs := analysis.NewCFGs(terminalForCFG)
	for _, f := range pass.SourceFiles() {
		for _, u := range analysis.Units(f) {
			u := u
			walkShallow(u.Body(), func(n ast.Node) {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return
				}
				checkGoStmt(pass, cfgs, u, gs)
			})
		}
	}
	return nil
}

func checkGoStmt(pass *analysis.Pass, cfgs *analysis.CFGs, u analysis.Unit, gs *ast.GoStmt) {
	lit, isLit := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
	if !isLit {
		// A named callee: the caller can join it through what it hands
		// over — the context (cancellation reaps it) or a channel (the
		// callee signals or is signalled through it) — or the callee's
		// own body is bounded, as its BoundedFact records.
		for _, arg := range gs.Call.Args {
			t := pass.TypeOf(arg)
			if isContextType(t) || isChanType(t) {
				return
			}
		}
		var bf BoundedFact
		if fn := calleeFunc(pass, gs.Call); fn != nil && pass.ImportObjectFact(fn, &bf) {
			return
		}
		pass.Reportf(gs.Pos(), "goroutine calls %s with no context or channel to join it: the callee outlives the caller unobserved; pass the caller's ctx, a done channel, or wrap in a WaitGroup-joined literal", types.ExprString(gs.Call.Fun))
		return
	}

	cfg := cfgs.For(lit.Body)
	if wgJoined(pass, u, gs, lit, cfg) || closeJoined(pass, u, lit, cfg) ||
		sendJoined(pass, u, lit, cfg) || boundedBody(pass, lit) {
		return
	}
	pass.Reportf(gs.Pos(), "goroutine is not joined: no WaitGroup Add-before-go/Done-on-all-paths/Wait pairing, no closed or sent channel the owner receives, no ctx/done bound — teardown can race it (the accept-loop teardown bug)")
}

// wgJoined checks the WaitGroup pairing: recv.Done() on every exit path
// of the body, recv.Add positioned before the go statement, and
// recv.Wait reachable from the owner.
func wgJoined(pass *analysis.Pass, u analysis.Unit, gs *ast.GoStmt, lit *ast.FuncLit, cfg *analysis.CFG) bool {
	recv, ok := doneReceiver(pass, lit, cfg)
	if !ok {
		return false
	}
	// Add must come before the spawn in the enclosing declaration;
	// Add inside the spawned body itself races the owner's Wait.
	addOK := false
	ast.Inspect(u.Enclosing, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && n.Pos() < gs.Pos() && !containsNode(lit, n) {
			if isWaitGroupCall(pass, call, recv, "Add") {
				addOK = true
			}
		}
		return !addOK
	})
	if !addOK {
		return false
	}
	// Wait in the enclosing declaration — or the group is owned wider
	// than this function (a field, a parameter), where the Wait lives
	// with the owner.
	waitOK := false
	ast.Inspect(u.Enclosing, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isWaitGroupCall(pass, call, recv, "Wait") {
			waitOK = true
		}
		return !waitOK
	})
	if waitOK {
		return true
	}
	return !declaredWithin(pass, recv, u.Enclosing)
}

// doneReceiver finds the WaitGroup receiver whose Done() the body runs
// on every exit path (deferred, or must-reach on the CFG).
func doneReceiver(pass *analysis.Pass, lit *ast.FuncLit, cfg *analysis.CFG) (string, bool) {
	var recvs []string
	walkShallow(lit.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" || !isWaitGroupType(pass.TypeOf(sel.X)) {
			return
		}
		recvs = append(recvs, types.ExprString(sel.X))
	})
	for _, recv := range recvs {
		if cfg.MustReachExit(func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			return ok && isWaitGroupCall(pass, call, recv, "Done")
		}) {
			return recv, true
		}
	}
	return "", false
}

// closeJoined checks the close-join: the body closes a channel on every
// exit path and the owner receives from it.
func closeJoined(pass *analysis.Pass, u analysis.Unit, lit *ast.FuncLit, cfg *analysis.CFG) bool {
	var chans []types.Object
	walkShallow(lit.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isBuiltin(pass, call, "close") || len(call.Args) != 1 {
			return
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := pass.ObjectOf(id); obj != nil {
				chans = append(chans, obj)
			}
		}
	})
	for _, ch := range chans {
		closes := func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isBuiltin(pass, call, "close") || len(call.Args) != 1 {
				return false
			}
			id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
			return ok && pass.ObjectOf(id) == ch
		}
		if cfg.MustReachExit(closes) && ownerReceivesFrom(pass, u, lit, ch) {
			return true
		}
	}
	return false
}

// sendJoined checks the send-join: every exit path of the body sends on
// a channel the owner receives from (the `done <- run()` idiom).
func sendJoined(pass *analysis.Pass, u analysis.Unit, lit *ast.FuncLit, cfg *analysis.CFG) bool {
	var chans []types.Object
	walkShallow(lit.Body, func(n ast.Node) {
		send, ok := n.(*ast.SendStmt)
		if !ok {
			return
		}
		if id, ok := ast.Unparen(send.Chan).(*ast.Ident); ok {
			if obj := pass.ObjectOf(id); obj != nil {
				chans = append(chans, obj)
			}
		}
	})
	for _, ch := range chans {
		sends := func(n ast.Node) bool {
			send, ok := n.(*ast.SendStmt)
			if !ok {
				return false
			}
			id, ok := ast.Unparen(send.Chan).(*ast.Ident)
			return ok && pass.ObjectOf(id) == ch
		}
		if cfg.MustReachExit(sends) && ownerReceivesFrom(pass, u, lit, ch) {
			return true
		}
	}
	return false
}

// ownerReceivesFrom reports whether the enclosing declaration — outside
// the spawned literal itself — receives from or ranges over ch.
func ownerReceivesFrom(pass *analysis.Pass, u analysis.Unit, lit *ast.FuncLit, ch types.Object) bool {
	found := false
	isCh := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && pass.ObjectOf(id) == ch
	}
	ast.Inspect(u.Enclosing, func(n ast.Node) bool {
		if found || containsNode(lit, n) && n == ast.Node(lit) {
			return !found
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" && isCh(n.X) && !within(lit, n) {
				found = true
			}
		case *ast.RangeStmt:
			if isCh(n.X) && !within(lit, n) {
				found = true
			}
		}
		return !found
	})
	return found
}

// within reports whether n lies inside root's source range.
func within(root, n ast.Node) bool {
	return n.Pos() >= root.Pos() && n.End() <= root.End()
}

// boundedBody reports whether the literal's lifetime is bounded (see
// bodyBounded).
func boundedBody(pass *analysis.Pass, lit *ast.FuncLit) bool {
	return bodyBounded(pass, lit.Body)
}

// bodyBounded reports whether a function body's lifetime is bounded by
// a join signal it already owns: it receives from ctx.Done() or from a
// done-shaped channel (chan struct{}), or it blocks on a WaitGroup's
// Wait — the watcher shape, where the body outlives exactly the group
// it observes and the group's own goroutines are separately joined.
func bodyBounded(pass *analysis.Pass, body *ast.BlockStmt) bool {
	bounded := false
	walkShallow(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if sel.Sel.Name == "Done" && isContextType(pass.TypeOf(sel.X)) {
					bounded = true
				}
				if sel.Sel.Name == "Wait" && isWaitGroupType(pass.TypeOf(sel.X)) {
					bounded = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" && isDoneChanType(pass.TypeOf(n.X)) {
				bounded = true
			}
		case *ast.RangeStmt:
			if isDoneChanType(pass.TypeOf(n.X)) {
				bounded = true
			}
		}
	})
	return bounded
}

// exportBoundedFacts publishes a BoundedFact for every declaration
// whose body is bounded, so `go f(x)` is recognized as joined in this
// package and in every importer.
func exportBoundedFacts(pass *analysis.Pass) {
	for fn, fd := range localDeclsFor(pass) {
		if bodyBounded(pass, fd.Body) {
			pass.ExportObjectFact(fn, &BoundedFact{})
		}
	}
}

// declaredWithin reports whether the WaitGroup named by recv (rendered
// receiver expression) is owned by this declaration's body. A selector
// or index receiver ("p.wg", "pools[i].wg") is a field — the struct
// owns it and its Wait lives with the owner, so it counts as non-local.
// A bare identifier is local when its object is declared inside the
// body (parameters are handed in by an owner and count as non-local).
func declaredWithin(pass *analysis.Pass, recv string, fd *ast.FuncDecl) bool {
	for i := 0; i < len(recv); i++ {
		if recv[i] == '.' || recv[i] == '[' {
			return false
		}
	}
	if fd.Body == nil {
		return false
	}
	declared := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == recv {
			if obj := pass.ObjectOf(id); obj != nil && obj.Pos() >= fd.Body.Pos() && obj.Pos() <= fd.Body.End() {
				declared = true
			}
		}
		return !declared
	})
	return declared
}

func isWaitGroupCall(pass *analysis.Pass, call *ast.CallExpr, recv, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name || !isWaitGroupType(pass.TypeOf(sel.X)) {
		return false
	}
	return types.ExprString(sel.X) == recv
}

func isWaitGroupType(t types.Type) bool {
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
	return obj.Name() == "WaitGroup" && pkgPathIs(obj.Pkg(), "sync")
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// isDoneChanType recognizes the done-channel convention: chan struct{}.
func isDoneChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	s, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && s.NumFields() == 0
}
