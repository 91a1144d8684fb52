package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Chansend checks that blocking sends in producer loops are
// cancellable: a send on a locally made unbuffered channel inside a
// loop must sit in a select with a second arm (done/ctx) or a default.
//
// Contract (DESIGN.md): a producer looping `ch <- work` on an
// unbuffered channel deadlocks the moment its consumers stop early —
// the first-error-return shape: workers bail on error, the producer
// blocks forever on a send nobody will receive, and Wait never returns.
// The fix shape is the select-with-done producer. The analyzer
// resolves the channel to its make site: only channels created
// unbuffered in the same declaration are flagged — parameters, fields
// and buffered channels have capacity or ownership the caller manages.
var Chansend = &analysis.Analyzer{
	Name: "chansend",
	Doc:  "flag blocking sends in loops on locally made unbuffered channels outside a multi-arm select",
	Run:  runChansend,
}

func runChansend(pass *analysis.Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, u := range analysis.Units(f) {
			u := u
			walkShallow(u.Body(), func(n ast.Node) {
				send, ok := n.(*ast.SendStmt)
				if !ok {
					return
				}
				checkSend(pass, u, send)
			})
		}
	}
	return nil
}

func checkSend(pass *analysis.Pass, u analysis.Unit, send *ast.SendStmt) {
	path := pathTo(u.Body(), send)
	if path == nil || !inLoop(path) || inGuardedSelect(path, send) {
		return
	}
	// Resolve the channel: an identifier whose declaration in the
	// enclosing function is an unbuffered make. Anything else —
	// parameters, struct fields, buffered channels — is capacity or
	// ownership the caller manages, out of this analyzer's scope.
	id, ok := ast.Unparen(send.Chan).(*ast.Ident)
	if !ok {
		return
	}
	obj := pass.ObjectOf(id)
	if obj == nil || !unbufferedMake(pass, u.Enclosing, obj) {
		return
	}
	pass.Reportf(send.Pos(), "blocking send on unbuffered %s in a loop with no done/ctx arm: if the consumers stop early (first-error return), this send blocks forever and the pool deadlocks; wrap it in a select with a done or ctx.Done() case", id.Name)
}

// inLoop reports whether the path from the unit body to the send
// crosses a for or range statement.
func inLoop(path []ast.Node) bool {
	for _, n := range path {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		}
	}
	return false
}

// inGuardedSelect reports whether the send is the comm statement of a
// select clause that has an alternative: at least two clauses, or a
// default. A single-clause select without default blocks exactly like
// a bare send and earns no exemption.
func inGuardedSelect(path []ast.Node, send *ast.SendStmt) bool {
	for i := len(path) - 1; i >= 0; i-- {
		clause, ok := path[i].(*ast.CommClause)
		if !ok || clause.Comm != ast.Stmt(send) {
			continue
		}
		// The clause's select sits further up the path (behind the
		// select's own body block).
		for j := i - 1; j >= 0; j-- {
			sel, ok := path[j].(*ast.SelectStmt)
			if !ok {
				continue
			}
			if len(sel.Body.List) >= 2 {
				return true
			}
			for _, c := range sel.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					return true // default clause
				}
			}
			return false
		}
		return false
	}
	return false
}

// unbufferedMake reports whether obj is assigned a make(chan T) with no
// capacity argument anywhere in the enclosing declaration. An object
// with no visible make site (a parameter, a capture from further out)
// resolves false — the channel's capacity is someone else's decision.
func unbufferedMake(pass *analysis.Pass, fd *ast.FuncDecl, obj types.Object) bool {
	made := false
	isMakeChan := func(x ast.Expr) (unbuffered, isMake bool) {
		call, ok := ast.Unparen(x).(*ast.CallExpr)
		if !ok || !isBuiltin(pass, call, "make") || len(call.Args) == 0 {
			return false, false
		}
		if _, ok := call.Args[0].(*ast.ChanType); !ok {
			return false, false
		}
		return len(call.Args) == 1, true
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || pass.ObjectOf(id) != obj || i >= len(n.Rhs) {
					continue
				}
				if unbuf, isMake := isMakeChan(n.Rhs[i]); isMake && unbuf {
					made = true
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if pass.ObjectOf(name) != obj || i >= len(n.Values) {
					continue
				}
				if unbuf, isMake := isMakeChan(n.Values[i]); isMake && unbuf {
					made = true
				}
			}
		}
		return !made
	})
	return made
}
