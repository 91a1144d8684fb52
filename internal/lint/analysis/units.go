package analysis

// This file enumerates function units. A unit is one body the
// CFG/dataflow layer analyzes in isolation: a function declaration or a
// function literal — matching how the concurrency and determinism
// contracts are written (each goroutine body is its own lifecycle).

import (
	"go/ast"
	"go/types"
)

// A Unit is one analyzable function body: a declaration or a literal.
// Exactly one of Decl and Lit is non-nil.
type Unit struct {
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// Enclosing is the top-level declaration the unit lives in (the unit
	// itself for declarations). Join-point searches that cross goroutine
	// boundaries — "is this WaitGroup waited on anywhere?" — scan the
	// enclosing declaration, since that is the lifetime the contract
	// binds.
	Enclosing *ast.FuncDecl
}

// Body returns the unit's statement body.
func (u Unit) Body() *ast.BlockStmt {
	if u.Decl != nil {
		return u.Decl.Body
	}
	return u.Lit.Body
}

// FuncType returns the unit's signature AST.
func (u Unit) FuncType() *ast.FuncType {
	if u.Decl != nil {
		return u.Decl.Type
	}
	return u.Lit.Type
}

// Units enumerates every function unit of the file with a non-nil body:
// each declaration and, nested to any depth, each literal.
func Units(f *ast.File) []Unit {
	var out []Unit
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		out = append(out, Unit{Decl: fd, Enclosing: fd})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				out = append(out, Unit{Lit: lit, Enclosing: fd})
			}
			return true
		})
	}
	return out
}

// CFGs memoizes BuildCFG per body, so the several analyzers sharing the
// flow-sensitive layer do not rebuild graphs for the same functions.
type CFGs struct {
	isTerminal IsTerminalCall
	m          map[*ast.BlockStmt]*CFG
}

// NewCFGs returns a CFG cache using the given terminal-call predicate.
func NewCFGs(isTerminal IsTerminalCall) *CFGs {
	return &CFGs{isTerminal: isTerminal, m: map[*ast.BlockStmt]*CFG{}}
}

// For returns the (cached) CFG of the body.
func (c *CFGs) For(body *ast.BlockStmt) *CFG {
	if g, ok := c.m[body]; ok {
		return g
	}
	g := BuildCFG(body, c.isTerminal)
	c.m[body] = g
	return g
}

// LocalDecls maps every package-local function and method object with a
// body to its declaration: the functions a package's fact pass
// summarizes.
func LocalDecls(pkg *Package) map[*types.Func]*ast.FuncDecl {
	out := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pkg.Info.ObjectOf(fd.Name).(*types.Func); ok {
				out[fn] = fd
			}
		}
	}
	return out
}
