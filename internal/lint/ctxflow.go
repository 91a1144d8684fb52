package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// CtxFlow enforces the cancellation contract in library code.
//
// Contract (DESIGN.md): cancellation stops any entry point within one
// token-grant, which requires the caller's context to reach every
// blocking call. Two failure modes break the chain, and CtxFlow flags
// both:
//
//  1. Minting a fresh root — context.Background() or context.TODO() —
//     inside internal packages, which silently detaches everything
//     downstream from the caller's cancellation. The one sanctioned
//     shape is the documented legacy wrapper: a function with no ctx
//     parameter whose Background() feeds a call to its own Ctx variant
//     (Run → RunCtx). There the root is the API seam itself, and the
//     exemption is structural.
//  2. An exported function that accepts a context but then calls the
//     context-free variant of an API that has one (Acquire where
//     AcquireCtx exists), quietly dropping cancellation mid-chain —
//     or calls a function in another package that a RootMintFact marks
//     as minting its own root, which detaches the callee tree just the
//     same even though no Ctx sibling exists to point at.
var CtxFlow = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "flag context.Background()/TODO() in library code and ctx-accepting functions that call non-ctx API variants",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *analysis.Pass) error {
	for _, f := range pass.SourceFiles() {
		sanctioned := wrapperRoots(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && !sanctioned[call] {
				if fn := calleeFunc(pass, call); fn != nil && pkgPathIs(fn.Pkg(), "context") {
					if fn.Name() == "Background" || fn.Name() == "TODO" {
						pass.Reportf(call.Pos(), "context.%s() in library code detaches callees from the caller's cancellation; accept and pass through a ctx parameter (or make this a Run/RunCtx-style wrapper pair)", fn.Name())
					}
				}
			}
			return true
		})
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if !hasCtxParam(pass, fd) {
				continue
			}
			checkCtxVariants(pass, fd)
		}
	}
	return nil
}

// wrapperRoots collects the sanctioned context.Background()/TODO()
// calls of the file: those inside a declaration that has no context
// parameter, appearing as an argument to a call of the declaration's
// own Ctx variant — the `func (p Pipeline) Run() { return
// p.RunCtx(context.Background()) }` legacy-wrapper shape. The root is
// minted exactly at the API seam and handed straight to the
// cancellation-aware implementation, so nothing detaches.
func wrapperRoots(pass *analysis.Pass, f *ast.File) map[*ast.CallExpr]bool {
	out := map[*ast.CallExpr]bool{}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || hasCtxParam(pass, fd) {
			continue
		}
		want := fd.Name.Name + "Ctx"
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := ""
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				name = fun.Name
			case *ast.SelectorExpr:
				name = fun.Sel.Name
			}
			if name != want {
				return true
			}
			for _, arg := range call.Args {
				inner, ok := ast.Unparen(arg).(*ast.CallExpr)
				if !ok {
					continue
				}
				if fn := calleeFunc(pass, inner); fn != nil && pkgPathIs(fn.Pkg(), "context") &&
					(fn.Name() == "Background" || fn.Name() == "TODO") {
					out[inner] = true
				}
			}
			return true
		})
	}
	return out
}

// hasCtxParam reports whether the function declares a context.Context
// parameter.
func hasCtxParam(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if isContextType(pass.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && pkgPathIs(obj.Pkg(), "context")
}

// checkCtxVariants flags calls inside fd that drop the context in hand:
// calls to F where a sibling FCtx exists, and cross-package calls to
// functions a RootMintFact marks as minting their own root.
func checkCtxVariants(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		name := fn.Name()
		if len(name) >= 3 && name[len(name)-3:] == "Ctx" {
			return true
		}
		if hasCtxSibling(fn) {
			pass.Reportf(call.Pos(), "%s accepts a context but calls %s, which has a context-aware variant %sCtx; pass the context through so cancellation propagates", fd.Name.Name, name, name)
			return true
		}
		var rm RootMintFact
		if fn.Pkg() != pass.Pkg.Types && pass.ImportObjectFact(fn, &rm) {
			pass.Reportf(call.Pos(), "%s accepts a context but calls %s, which mints its own context root — the context in hand is dropped and the callee tree detaches from cancellation; use or add a ctx-accepting variant", fd.Name.Name, calleeLabel(fn))
		}
		return true
	})
}

// exportRootMintFacts publishes a RootMintFact for every exported
// declaration without a context parameter that mints a fresh root
// outside the sanctioned Run→RunCtx wrapper shape.
func exportRootMintFacts(pass *analysis.Pass) {
	for _, f := range pass.SourceFiles() {
		sanctioned := wrapperRoots(pass, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() || hasCtxParam(pass, fd) {
				continue
			}
			mints := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && !sanctioned[call] {
					if fn := calleeFunc(pass, call); fn != nil && pkgPathIs(fn.Pkg(), "context") &&
						(fn.Name() == "Background" || fn.Name() == "TODO") {
						mints = true
					}
				}
				return !mints
			})
			if mints {
				if fn, ok := pass.ObjectOf(fd.Name).(*types.Func); ok {
					pass.ExportObjectFact(fn, &RootMintFact{})
				}
			}
		}
	}
}

// hasCtxSibling reports whether fn has a sibling named fn.Name()+"Ctx":
// a method on the same receiver type, or a function in the same package
// scope.
func hasCtxSibling(fn *types.Func) bool {
	want := fn.Name() + "Ctx"
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if recv := sig.Recv(); recv != nil {
		obj, _, _ := types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), want)
		_, isFunc := obj.(*types.Func)
		return isFunc
	}
	_, isFunc := fn.Pkg().Scope().Lookup(want).(*types.Func)
	return isFunc
}
