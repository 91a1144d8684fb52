package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// AllocFree keeps the per-step hot paths free of heap allocation.
//
// Contract (DESIGN.md): the inner loops — the simulation step, the
// k-NN queries it issues, the estimator chunk kernels, the ICP
// alignment loop — run millions of times per experiment, and the
// scratch-buffer discipline (Engine scratch fields, dst-reuse APIs,
// grow* amortized helpers) exists precisely so that steady-state
// iterations allocate nothing. One stray literal or closure in a hot
// body turns into GC pressure that dwarfs the arithmetic. AllocFree is
// escape-analysis-lite over a declared hot-path list: inside a hot
// function it flags
//
//   - make/new and map/slice composite literals, and address-taken
//     struct literals (&T{}), all of which heap-allocate;
//   - append calls that can grow — unless they reuse a reslice
//     (s[:0]), build into a parameter or receiver field (the dst-reuse
//     and scratch idioms), or sit under a cap()-guard;
//     cap()-guarded blocks and cold error exits (an if-body ending in
//     a non-nil error return) are exempt wholesale: neither is a
//     steady-state cost;
//   - function literals that capture enclosing variables (a closure
//     allocates its environment);
//   - interface-boxing argument conversions and variadic calls, both
//     of which materialize hidden slices or boxes;
//   - string<->[]byte conversions, which copy;
//   - calls to functions that allocate, as their AllocFact records —
//     package-local and cross-package alike. Amortized-growth helpers
//     (a body that branches on cap()) are sanctioned and not counted.
//
// The hot set is the central hotPaths list plus any declaration whose
// doc comment carries //sopslint:hotpath <reason>; the reason is
// mandatory so each addition explains what loop makes it hot.
var AllocFree = &analysis.Analyzer{
	Name: "allocfree",
	Doc:  "flag heap allocations in declared hot-path functions",
	Run:  runAllocFree,
}

// hotPaths names the repo's per-step inner loops. Keys are
// package.(receiver).function with the package's import path.
var hotPaths = map[string]bool{
	"repro/internal/sim.(*System).Step":               true,
	"repro/internal/knn.(*Tree).KNearest":             true,
	"repro/internal/knn.(*Tree).CountWithin":          true,
	"repro/internal/infotheory.(*Engine).ksgChunk":    true,
	"repro/internal/infotheory.(*Engine).klChunk":     true,
	"repro/internal/infotheory.(*Engine).kernelChunk": true,
	"repro/internal/infotheory.(*Engine).approxChunk": true,
	"repro/internal/align.(*Aligner).icp":             true,
}

const hotpathPrefix = "//sopslint:hotpath"

func runAllocFree(pass *analysis.Pass) error {
	for _, f := range pass.SourceFiles() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			hot := false
			if fn, ok := pass.ObjectOf(fd.Name).(*types.Func); ok && hotPaths[funcKey(fn)] {
				hot = true
			}
			if ann, pos, ok := hotpathAnnotation(fd); ok {
				hot = true
				if strings.TrimSpace(strings.TrimPrefix(ann, hotpathPrefix)) == "" {
					pass.Reportf(pos, "//sopslint:hotpath needs a reason — write //sopslint:hotpath <which loop makes this hot>")
				}
			}
			if hot {
				checkHotBody(pass, fd)
			}
		}
	}
	return nil
}

// funcKey renders fn as a hotPaths key: pkg.(recv).Name for methods,
// pkg.Name for functions.
func funcKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	pkg := fn.Pkg().Path()
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkg + "." + fn.Name()
	}
	rt := sig.Recv().Type()
	recv := ""
	if p, isPtr := rt.(*types.Pointer); isPtr {
		rt = p.Elem()
		recv = "*"
	}
	if named, isNamed := rt.(*types.Named); isNamed {
		recv += named.Obj().Name()
	}
	return fmt.Sprintf("%s.(%s).%s", pkg, recv, fn.Name())
}

func hotpathAnnotation(fd *ast.FuncDecl) (string, token.Pos, bool) {
	if fd.Doc == nil {
		return "", 0, false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, hotpathPrefix) {
			return c.Text, c.Pos(), true
		}
	}
	return "", 0, false
}

// checkHotBody reports every allocation site in a hot declaration.
func checkHotBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	scratch := scratchObjects(pass, fd)
	guarded, _ := allocExemptRanges(pass, fd.Body)
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos, "%s in hot path %s: steady-state iterations must not allocate; hoist into a scratch field or reuse a caller-provided buffer", what, name)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if capt := captured(pass, n, fd); capt != "" {
				report(n.Pos(), fmt.Sprintf("closure capturing %s allocates its environment", capt))
			}
			return false
		case *ast.UnaryExpr:
			// Map/slice literals report in the CompositeLit case
			// whether or not they are address-taken.
			if n.Op == token.AND && !guarded.contains(n.Pos()) {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					if _, isStruct := pass.TypeOf(lit).Underlying().(*types.Struct); isStruct {
						report(n.Pos(), "address-taken composite literal escapes to the heap")
					}
				}
			}
		case *ast.CompositeLit:
			if guarded.contains(n.Pos()) {
				return true
			}
			switch pass.TypeOf(n).Underlying().(type) {
			case *types.Map:
				report(n.Pos(), "map literal allocates")
			case *types.Slice:
				report(n.Pos(), "slice literal allocates")
			}
		case *ast.CallExpr:
			checkHotCall(pass, n, scratch, guarded, report)
		}
		return true
	})
}

// checkHotCall classifies one call expression inside a hot body.
func checkHotCall(pass *analysis.Pass, call *ast.CallExpr, scratch map[types.Object]bool, guarded posRanges, report func(token.Pos, string)) {
	// Conversions: string<->[]byte copies.
	if tv, ok := pass.Pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst, src := tv.Type, pass.TypeOf(call.Args[0])
		if isStringByteConv(dst, src) && !guarded.contains(call.Pos()) {
			report(call.Pos(), "string/[]byte conversion copies")
		}
		return
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make", "new":
				if !guarded.contains(call.Pos()) {
					report(call.Pos(), id.Name+" allocates")
				}
			case "append":
				if len(call.Args) > 0 && !appendExempt(pass, call.Args[0], scratch) && !guarded.contains(call.Pos()) {
					report(call.Pos(), "append may grow the backing array")
				}
			}
			return
		}
	}
	fn := calleeFunc(pass, call)
	if fn == nil {
		return
	}
	var af AllocFact
	if pass.ImportObjectFact(fn, &af) && af.Allocates && !guarded.contains(call.Pos()) {
		report(call.Pos(), fmt.Sprintf("call to %s, which allocates,", calleeLabel(fn)))
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	// Variadic call materializes an argument slice (no args -> nil
	// slice, no allocation; spread passes the caller's slice through).
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) > sig.Params().Len()-1 && !guarded.contains(call.Pos()) {
		report(call.Pos(), fmt.Sprintf("variadic call to %s materializes an argument slice", calleeLabel(fn)))
	}
	// Interface boxing at argument positions.
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis.IsValid() {
				continue
			}
			if s, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < sig.Params().Len():
			pt = sig.Params().At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := pass.TypeOf(arg)
		if at == nil || isPointerShaped(at) || guarded.contains(arg.Pos()) {
			continue
		}
		report(arg.Pos(), fmt.Sprintf("passing %s as interface %s boxes it on the heap", at, pt))
	}
}

// isPointerShaped reports whether storing t in an interface needs no
// allocation: pointers, channels, maps, funcs, unsafe pointers,
// interfaces themselves, and untyped nil.
func isPointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return u.Kind() == types.UntypedNil || u.Kind() == types.UnsafePointer
	}
	return false
}

func isStringByteConv(dst, src types.Type) bool {
	return (isStringType(dst) && isByteSlice(src)) || (isByteSlice(dst) && isStringType(src))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// appendExempt reports whether an append's destination follows a
// sanctioned no-steady-state-growth shape: a reslice (s[:0] reuse), a
// parameter (the dst-reuse API idiom), or a field on a parameter or
// receiver (a scratch buffer).
func appendExempt(pass *analysis.Pass, dst ast.Expr, scratch map[types.Object]bool) bool {
	switch dst := ast.Unparen(dst).(type) {
	case *ast.SliceExpr:
		return true
	case *ast.Ident:
		return scratch[pass.ObjectOf(dst)]
	case *ast.SelectorExpr:
		if base, ok := ast.Unparen(dst.X).(*ast.Ident); ok {
			return scratch[pass.ObjectOf(base)]
		}
	}
	return false
}

// scratchObjects collects the declaration's parameters and receiver —
// the roots callers own, whose buffers are reusable across calls — plus
// locals derived from them: an assignment from a reslice (logs :=
// sc.logs[:0]) or from another scratch root keeps the scratch status,
// so the buffer-naming idiom passes without annotation.
func scratchObjects(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := pass.ObjectOf(name); obj != nil {
					out[obj] = true
				}
			}
		}
	}
	add(fd.Recv)
	add(fd.Type.Params)
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i := range as.Lhs {
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok || !scratchDerived(pass, as.Rhs[i], out) {
					continue
				}
				if obj := pass.ObjectOf(id); obj != nil && !out[obj] {
					out[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return out
}

// scratchDerived reports whether the expression denotes (a reslice of)
// a scratch root.
func scratchDerived(pass *analysis.Pass, e ast.Expr, scratch map[types.Object]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.SliceExpr:
		return true
	case *ast.Ident:
		return scratch[pass.ObjectOf(e)]
	case *ast.SelectorExpr:
		if base, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			return scratch[pass.ObjectOf(base)]
		}
	}
	return false
}

// posRanges is a set of source intervals; contains reports membership.
type posRanges []struct{ lo, hi token.Pos }

func (r posRanges) contains(p token.Pos) bool {
	for _, iv := range r {
		if p >= iv.lo && p <= iv.hi {
			return true
		}
	}
	return false
}

// allocExemptRanges returns the if-statement bodies where allocation
// is not a steady-state cost: cap()-guarded blocks (the
// amortized-growth idiom — they run only when the buffer must grow)
// and cold error exits (a body ending in a return whose error result
// is non-nil — they run at most once, on the way out). hasCapGuard
// reports whether any guard was specifically a cap() check, which the
// summary layer uses to sanction grow-style helpers.
func allocExemptRanges(pass *analysis.Pass, body *ast.BlockStmt) (out posRanges, hasCapGuard bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		ifst, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		capGuard := condMentionsCap(pass, ifst.Cond)
		if capGuard || coldErrorExit(pass, ifst.Body) {
			out = append(out, struct{ lo, hi token.Pos }{ifst.Body.Pos(), ifst.Body.End()})
			hasCapGuard = hasCapGuard || capGuard
		}
		return true
	})
	return out, hasCapGuard
}

// coldErrorExit reports whether the block ends by returning a non-nil
// error — the failure path out of the function, executed at most once
// per call rather than per iteration.
func coldErrorExit(pass *analysis.Pass, body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	ret, ok := body.List[len(body.List)-1].(*ast.ReturnStmt)
	if !ok || len(ret.Results) == 0 {
		return false
	}
	last := ast.Unparen(ret.Results[len(ret.Results)-1])
	if id, ok := last.(*ast.Ident); ok {
		if _, isNil := pass.ObjectOf(id).(*types.Nil); isNil {
			return false
		}
	}
	t := pass.TypeOf(last)
	return t != nil && types.AssignableTo(t, types.Universe.Lookup("error").Type())
}

func condMentionsCap(pass *analysis.Pass, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "cap" {
				if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); isBuiltin {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// captured names one enclosing local the literal captures, or "" when
// the literal is capture-free (a static func value, no allocation).
func captured(pass *analysis.Pass, lit *ast.FuncLit, fd *ast.FuncDecl) string {
	inner := map[types.Object]bool{}
	ast.Inspect(lit, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := pass.Pkg.Info.Defs[n]; obj != nil {
				inner[obj] = true
			}
		}
		return true
	})
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || name != "" {
			return name == ""
		}
		obj := pass.Pkg.Info.Uses[id]
		if obj == nil || inner[obj] {
			return true
		}
		if v, ok := obj.(*types.Var); ok && !v.IsField() && obj.Pkg() == pass.Pkg.Types && obj.Parent() != pass.Pkg.Types.Scope() && obj.Parent() != nil {
			if obj.Pos() >= fd.Pos() && obj.Pos() < fd.End() {
				name = obj.Name()
			}
		}
		return true
	})
	return name
}

// bodyAllocates reports whether a body unconditionally allocates —
// make/new, map/slice/address-taken literals, or string<->[]byte
// conversions outside a cap() guard. Amortized-growth helpers (any
// cap() guard in the body) are sanctioned wholesale: their steady-state
// path is allocation-free by construction.
func bodyAllocates(pass *analysis.Pass, body *ast.BlockStmt) bool {
	guarded, hasCapGuard := allocExemptRanges(pass, body)
	allocates := false
	ast.Inspect(body, func(n ast.Node) bool {
		if allocates {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CompositeLit:
			if guarded.contains(n.Pos()) {
				return true
			}
			switch pass.TypeOf(n).Underlying().(type) {
			case *types.Map, *types.Slice:
				allocates = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND && !guarded.contains(n.Pos()) {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					allocates = true
				}
			}
		case *ast.CallExpr:
			if guarded.contains(n.Pos()) {
				return true
			}
			if tv, ok := pass.Pkg.Info.Types[n.Fun]; ok && tv.IsType() && len(n.Args) == 1 {
				if isStringByteConv(tv.Type, pass.TypeOf(n.Args[0])) {
					allocates = true
				}
				return true
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); isBuiltin && (id.Name == "make" || id.Name == "new") {
					allocates = true
				}
			}
		}
		return true
	})
	if !allocates {
		return false
	}
	// Amortized-growth sanction: a body that branches on cap() is a
	// grow-style helper whose allocation is the resize path.
	return !hasCapGuard
}

// exportAllocFacts publishes an AllocFact for every declaration whose
// body allocates, so hot paths here and in dependent packages see the
// allocation at the call.
func exportAllocFacts(pass *analysis.Pass) {
	for fn, fd := range localDeclsFor(pass) {
		if bodyAllocates(pass, fd.Body) {
			pass.ExportObjectFact(fn, &AllocFact{Allocates: true})
		}
	}
}
