package lint

// This file is the shared taint engine behind the flow-sensitive
// analyzers (walltime, dettaint): a forward may-dataflow over the
// analysis-package CFGs tracking three kinds of nondeterminism per local
// variable — map iteration order, wall-clock reads, raw (non-rngx)
// randomness — with every call applied through the callee's TaintFact,
// so taint survives a hop through a helper in this package or another.
//
// The engine is deliberately idiom-aware, so the sanctioned patterns
// pass without directives:
//
//   - collect-sort-iterate: appending map keys taints the slice, a
//     sort.* / slices.Sort* call sanitizes it, ranging over the sorted
//     slice yields clean keys (the sortedCounts idiom);
//   - key-indexed writes and exact integer accumulation are
//     order-insensitive and do not propagate map-order taint — not even
//     into storage that outlives the function, where any other map-order
//     write is an escape;
//   - wall-clock values stay legal while they remain transparently
//     time-typed instrumentation (time.Time/time.Duration locals,
//     slices of them, Duration-typed struct columns) and are flagged
//     only where they escape that family — a conversion to a number, a
//     comparison steering control flow, a non-time method like
//     UnixNano, or an argument to another package's API.
//
// Each function unit is analyzed in isolation with clean parameters;
// what a callee does with a tainted argument is captured in its summary
// (param→result flow, param→escape, param→hash-sink) and reported at
// the call site. The fact pass computes the package's summaries in two
// snapshot rounds: round 1 treats package-local callees as plain
// unions, round 2 reads the round-1 facts, so a summary sees through
// one local call hop.

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"repro/internal/lint/analysis"
)

// Taint kinds: the low bits of a TaintVal mask. Bits at and above
// taintParamShift mark flow from the n-th parameter during summary
// computation.
const (
	taintMapOrder uint32 = 1 << iota
	taintClock
	taintRand

	taintKinds      = taintMapOrder | taintClock | taintRand
	taintParamShift = 3

	// taintDet are the kinds that break bit-identical results wherever
	// they land; wall-clock values only matter where they escape.
	taintDet = taintMapOrder | taintRand
)

func paramBit(i int) uint32 {
	if n := i + taintParamShift; n < 32 {
		return 1 << n
	}
	return 0
}

// clockEscaping reports whether a value reaching a clock-escape point
// records an event: it carries clock taint, or — in summary mode —
// parameter bits, recording "this parameter would escape here if the
// caller's argument were clock-tainted".
func clockEscaping(kinds uint32) bool {
	return kinds&taintClock != 0 || kinds&^taintKinds != 0
}

// taintEventKind classifies what the engine observed at a node.
type taintEventKind int

const (
	// evClockEscape: a wall-clock-derived value left the time-typed
	// family (conversion, comparison, non-time method, cross-package
	// argument). Reported by walltime.
	evClockEscape taintEventKind = iota
	// evHashSink: a tainted value was written into a hash (the
	// fingerprint/checkpoint identity). Reported by dettaint.
	evHashSink
	// evReturnSink: a map-order or raw-rand tainted value is returned
	// from an exported function — nondeterminism reaching a result.
	// Reported by dettaint.
	evReturnSink
	// evStoreEscape: a map-order or raw-rand tainted value is written
	// into storage that outlives the function — a receiver or parameter
	// field or element, a captured or package variable, or the receiver
	// of a method called with it. Reported by dettaint.
	evStoreEscape
)

// taintEvent is one observation at a source position.
type taintEvent struct {
	kind  taintEventKind
	pos   token.Pos
	kinds uint32 // taint kinds involved
	src   string // human-readable source ("time.Now", "map iteration order")
	where string // event-specific context for the message
}

// taintEngine analyzes the units of one package.
type taintEngine struct {
	pass *analysis.Pass
	cfgs *analysis.CFGs

	// per-unit analysis state
	summaryMode bool
	unit        analysis.Unit
	results     []types.Object // named results, for bare returns
	exported    bool           // reporting mode: unit is an exported decl
	funcName    string
}

// taintEngineFor returns the package's memoized taint engine, shared by
// walltime, dettaint and the fact pass. The engine only reads pass.Pkg
// (types, info, facts), so the first pass's engine serves every later
// one.
func taintEngineFor(pass *analysis.Pass) *taintEngine {
	return pass.Pkg.Memo("lint.taintEngine", func() any {
		return &taintEngine{pass: pass, cfgs: analysis.NewCFGs(terminalForCFG)}
	}).(*taintEngine)
}

// exportTaintFacts publishes every declaration's summary as a
// TaintFact, including zero summaries: "introduces and propagates
// nothing" is what lets a clock-tainted argument cross into a callee
// known to keep it in the instrumentation family. Each round computes
// every summary from the facts the previous round left, then exports
// them together.
func exportTaintFacts(pass *analysis.Pass) {
	e := taintEngineFor(pass)
	decls := localDeclsFor(pass)
	for round := 0; round < 2; round++ {
		sums := make(map[*types.Func]*TaintFact, len(decls))
		for fn, fd := range decls {
			sums[fn] = e.summarize(fd)
		}
		for fn, sum := range sums {
			pass.ExportObjectFact(fn, sum)
		}
	}
}

// terminalForCFG adapts the suite's terminal-call test to the CFG
// builder (panic is handled by the builder itself).
func terminalForCFG(call *ast.CallExpr) bool { return isTerminalCall(call) }

// summarize computes one declaration's summary: seed every parameter
// with its bit, run the flow, union the returns.
func (e *taintEngine) summarize(fd *ast.FuncDecl) *TaintFact {
	saved := *e
	defer func() { *e = saved }()

	e.summaryMode = true
	e.unit = analysis.Unit{Decl: fd, Enclosing: fd}
	state := analysis.TaintState{}
	for i, obj := range e.paramObjs(fd) {
		if b := paramBit(i); b != 0 && obj != nil {
			state = state.Add(obj, analysis.TaintVal{Kinds: b})
		}
	}
	e.results = namedResults(e.pass, fd.Type)

	sum := &TaintFact{}
	collect := func(ev taintEvent) {
		switch ev.kind {
		case evClockEscape:
			sum.Escapes |= ev.kinds &^ taintKinds
		case evHashSink:
			sum.Sinks |= ev.kinds &^ taintKinds
		}
	}
	sum.Ret, sum.Src = e.flowUnit(fd.Body, state, collect)
	return sum
}

// paramObjs lists the declaration's receiver and parameter objects in
// signature order.
func (e *taintEngine) paramObjs(fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if len(field.Names) == 0 {
				out = append(out, nil) // unnamed: position still counts
				continue
			}
			for _, name := range field.Names {
				out = append(out, e.pass.ObjectOf(name))
			}
		}
	}
	add(fd.Recv)
	add(fd.Type.Params)
	return out
}

func namedResults(pass *analysis.Pass, ft *ast.FuncType) []types.Object {
	if ft.Results == nil {
		return nil
	}
	var out []types.Object
	for _, field := range ft.Results.List {
		for _, name := range field.Names {
			if obj := pass.ObjectOf(name); obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

// analyze runs the engine over one unit in reporting mode and returns
// the events observed. exported marks a declaration whose returns are
// result sinks.
func (e *taintEngine) analyze(u analysis.Unit) []taintEvent {
	saved := *e
	defer func() { *e = saved }()

	e.summaryMode = false
	e.unit = u
	e.exported = u.Decl != nil && u.Decl.Name.IsExported()
	e.funcName = "function literal"
	if u.Decl != nil {
		e.funcName = u.Decl.Name.Name
	}
	e.results = namedResults(e.pass, u.FuncType())
	var events []taintEvent
	e.flowUnit(u.Body(), analysis.TaintState{}, func(ev taintEvent) {
		events = append(events, ev)
	})
	return events
}

// flowUnit solves the taint flow over one body and replays it once with
// events enabled. It returns the union of return-value taints and the
// source name of the first intrinsic kind seen in a return.
func (e *taintEngine) flowUnit(body *ast.BlockStmt, boundary analysis.TaintState, emit func(taintEvent)) (retMask uint32, retSrc string) {
	cfg := e.cfgs.For(body)
	ins := analysis.Solve(cfg, analysis.Problem[analysis.TaintState]{
		Dir:      analysis.Forward,
		Boundary: boundary,
		Merge:    func(a, b analysis.TaintState) analysis.TaintState { return a.Merge(b) },
		Equal:    func(a, b analysis.TaintState) bool { return a.Equal(b) },
		Transfer: func(b *analysis.Block, in analysis.TaintState) analysis.TaintState {
			st := in
			for _, n := range b.Nodes {
				st = e.transfer(st, n, nil)
			}
			return st
		},
	})

	// Replay each reachable block once from its solved IN state with
	// events on, and union return taints as they are visited.
	for _, b := range cfg.Blocks {
		in, ok := ins[b]
		if !ok {
			continue // unreachable
		}
		st := in
		for _, n := range b.Nodes {
			if ret, isRet := returnOf(n); isRet {
				mask, src := e.returnTaint(st, ret)
				retMask |= mask
				if retSrc == "" {
					retSrc = src
				}
			}
			st = e.transfer(st, n, emit)
		}
	}
	// Defers run on exit with whatever state their closure sees; for
	// events, evaluate each deferred call under the exit-adjacent state
	// is overkill — the defer statement node already sat in a block and
	// was replayed there.
	return retMask, retSrc
}

func returnOf(n ast.Node) (*ast.ReturnStmt, bool) {
	ret, ok := n.(*ast.ReturnStmt)
	return ret, ok
}

// returnTaint unions the taint of a return's results (falling back to
// named results on a bare return).
func (e *taintEngine) returnTaint(st analysis.TaintState, ret *ast.ReturnStmt) (uint32, string) {
	var mask uint32
	var src string
	note := func(v analysis.TaintVal) {
		mask |= v.Kinds
		if src == "" {
			src = v.Src
		}
	}
	if len(ret.Results) == 0 {
		for _, obj := range e.results {
			note(st[obj])
		}
		return mask, src
	}
	for _, r := range ret.Results {
		note(e.eval(st, r, nil))
	}
	return mask, src
}

// transfer pushes the state through one CFG node, optionally emitting
// events. It must stay in lockstep with the event-free solving pass.
func (e *taintEngine) transfer(st analysis.TaintState, n ast.Node, emit func(taintEvent)) analysis.TaintState {
	switch n := n.(type) {
	case *ast.AssignStmt:
		return e.transferAssign(st, n, emit)
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return st
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				var v analysis.TaintVal
				if i < len(vs.Values) {
					v = e.eval(st, vs.Values[i], emit)
				} else if len(vs.Values) == 1 {
					v = e.eval(st, vs.Values[0], emit)
				}
				if obj := e.pass.ObjectOf(name); obj != nil {
					st = st.Set(obj, v)
				}
			}
		}
		return st
	case *ast.RangeStmt:
		return e.transferRange(st, n, emit)
	case *ast.ExprStmt:
		st = e.sanitizers(st, n.X)
		e.eval(st, n.X, emit)
		return e.callStores(st, n.X, emit)
	case *ast.ReturnStmt:
		if emit != nil && !e.summaryMode && e.exported {
			mask, src := e.returnTaint(st, n)
			if det := mask & (taintMapOrder | taintRand); det != 0 {
				emit(taintEvent{kind: evReturnSink, pos: n.Pos(), kinds: det, src: src, where: e.funcName})
			}
		}
		// evaluate for escape events in the results themselves
		for _, r := range n.Results {
			e.eval(st, r, emit)
		}
		return st
	case *ast.IfStmt:
		// only the Init lands here as a separate node; Cond is its own
		// node evaluated via the expression case below
		return st
	case *ast.SendStmt:
		e.eval(st, n.Chan, emit)
		e.eval(st, n.Value, emit)
		return st
	case *ast.GoStmt:
		e.evalCallArgs(st, n.Call, emit)
		return st
	case *ast.DeferStmt:
		e.evalCallArgs(st, n.Call, emit)
		return st
	case *ast.IncDecStmt:
		return st
	case *ast.LabeledStmt, *ast.BranchStmt, *ast.EmptyStmt:
		return st
	case ast.Expr:
		// loop/if/switch conditions and case expressions
		e.eval(st, n, emit)
		return st
	case ast.Stmt:
		return st
	}
	return st
}

// sanitizers clears map-order taint killed by a sort call: sort.X(s) /
// slices.SortX(s) leaves s deterministically ordered.
func (e *taintEngine) sanitizers(st analysis.TaintState, x ast.Expr) analysis.TaintState {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return st
	}
	fn := calleeFunc(e.pass, call)
	if fn == nil {
		return st
	}
	isSort := pkgPathIs(fn.Pkg(), "sort") && (strings.HasPrefix(fn.Name(), "Sort") ||
		fn.Name() == "Strings" || fn.Name() == "Ints" || fn.Name() == "Float64s" || fn.Name() == "Stable" || fn.Name() == "Slice" || fn.Name() == "SliceStable")
	isSlices := pkgPathIs(fn.Pkg(), "slices") && strings.HasPrefix(fn.Name(), "Sort")
	if !isSort && !isSlices {
		return st
	}
	if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
		if obj := e.pass.ObjectOf(id); obj != nil {
			v := st[obj]
			v.Kinds &^= taintMapOrder
			st = st.Set(obj, v)
		}
	}
	return st
}

func (e *taintEngine) transferAssign(st analysis.TaintState, n *ast.AssignStmt, emit func(taintEvent)) analysis.TaintState {
	// Evaluate RHS values first (events fire on the RHS reads).
	vals := make([]analysis.TaintVal, len(n.Rhs))
	for i, r := range n.Rhs {
		vals[i] = e.eval(st, r, emit)
	}
	valFor := func(i int) analysis.TaintVal {
		if len(n.Rhs) == len(n.Lhs) {
			return vals[i]
		}
		// tuple assignment: one multi-valued RHS taints every LHS
		return vals[0]
	}

	integerAccum := false
	opAssign := n.Tok != token.ASSIGN && n.Tok != token.DEFINE
	switch n.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		integerAccum = true
	}

	for i, lhs := range n.Lhs {
		v := valFor(i)
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		if integerAccum && isInteger(e.pass.TypeOf(lhs)) {
			v.Kinds &^= taintMapOrder // exact, commutative
		}
		switch lhs := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			obj := e.pass.ObjectOf(lhs)
			if obj == nil {
				continue
			}
			if opAssign {
				st = st.Add(obj, v)
			} else {
				st = st.Set(obj, v)
			}
		case *ast.IndexExpr:
			// Writes indexed by a map-order-tainted key hit each entry
			// exactly once — distinct-entry writes commute, so the
			// container's contents are order-independent.
			idx := e.eval(st, lhs.Index, nil)
			if idx.Kinds&taintMapOrder != 0 {
				v.Kinds &^= taintMapOrder
			}
			st = e.weakenInto(st, lhs.X, v)
		case *ast.SelectorExpr:
			// Storing a clock value into a time-typed field is the
			// sanctioned instrumentation column; tracking ends there.
			if t := e.pass.TypeOf(lhs); isTimeFamily(t) {
				v.Kinds &^= taintClock
			}
			st = e.weakenInto(st, lhs.X, v)
		case *ast.StarExpr:
			st = e.weakenInto(st, lhs.X, v)
		}
		if v.Kinds&taintDet != 0 {
			if obj, indirect := e.storeBase(lhs); e.outlives(obj, indirect) {
				e.storeEscape(emit, n.Pos(), v, types.ExprString(lhs))
			}
		}
	}
	return st
}

// callStores applies a statement-level method call's effect on its
// receiver: a call carrying map-order or raw-rand arguments may store
// them there (acc.Add(v)), so a local receiver takes their taint and a
// receiver that outlives the unit is an escape. Hash receivers are the
// hash sink's concern.
func (e *taintEngine) callStores(st analysis.TaintState, x ast.Expr, emit func(taintEvent)) analysis.TaintState {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return st
	}
	fn, recv := calleeFunc(e.pass, call), recvExprOf(call)
	if fn == nil || recv == nil || fn.Type().(*types.Signature).Recv() == nil || isHashType(e.pass.TypeOf(recv)) {
		return st
	}
	var v analysis.TaintVal
	for _, a := range call.Args {
		v = mergeVals(v, e.eval(st, a, nil))
	}
	if v.Kinds &= taintDet; v.Kinds == 0 {
		return st
	}
	if obj, _ := e.storeBase(recv); e.outlives(obj, true) {
		e.storeEscape(emit, call.Pos(), v, types.ExprString(recv)+" (via "+fn.Name()+")")
		return st
	}
	return e.weakenInto(st, recv, v)
}

// storeBase resolves the variable a write through lhs lands in, and
// whether the write reaches it through a field, element or pointer.
func (e *taintEngine) storeBase(lhs ast.Expr) (types.Object, bool) {
	indirect := false
	for {
		switch x := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			return e.pass.ObjectOf(x), indirect
		case *ast.SelectorExpr:
			lhs, indirect = x.X, true
		case *ast.IndexExpr:
			lhs, indirect = x.X, true
		case *ast.StarExpr:
			lhs, indirect = x.X, true
		default:
			return nil, indirect
		}
	}
}

// outlives reports whether a write into obj — through a field, element
// or pointer when indirect — lands in storage that outlives the unit: a
// package or captured variable, or a receiver or parameter reached
// indirectly. Named results are left out: what lands there is returned.
func (e *taintEngine) outlives(obj types.Object, indirect bool) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	body := e.unit.Body()
	if v.Pos() < e.unit.FuncType().Pos() || v.Pos() >= body.End() {
		return true
	}
	return indirect && v.Pos() < body.Pos() && !slices.Contains(e.results, obj)
}

// storeEscape reports a map-order or raw-rand value stored in target, a
// place that outlives the unit.
func (e *taintEngine) storeEscape(emit func(taintEvent), pos token.Pos, v analysis.TaintVal, target string) {
	e.emitEv(emit, taintEvent{kind: evStoreEscape, pos: pos, kinds: v.Kinds & taintDet, src: v.Src, where: target + ", which outlives " + e.funcName})
}

// weakenInto adds v to the object at the base of a container/field
// write expression (weak update: the old contents survive).
func (e *taintEngine) weakenInto(st analysis.TaintState, base ast.Expr, v analysis.TaintVal) analysis.TaintState {
	if obj, _ := e.storeBase(base); obj != nil && v.Kinds != 0 {
		return st.Add(obj, v)
	}
	return st
}

func (e *taintEngine) transferRange(st analysis.TaintState, n *ast.RangeStmt, emit func(taintEvent)) analysis.TaintState {
	xv := e.eval(st, n.X, emit)
	t := e.pass.TypeOf(n.X)
	var keyV, valV analysis.TaintVal
	if t != nil {
		switch t.Underlying().(type) {
		case *types.Map:
			src := "map iteration order"
			keyV = analysis.TaintVal{Kinds: xv.Kinds | taintMapOrder, Src: src}
			valV = keyV
		case *types.Chan:
			keyV = analysis.TaintVal{}
			valV = analysis.TaintVal{}
		default:
			// slices, arrays, strings, ints: deterministic order; the
			// values inherit the container's taint, the index is clean.
			keyV = analysis.TaintVal{}
			valV = xv
		}
	}
	if id, ok := n.Key.(*ast.Ident); ok && id.Name != "_" {
		if obj := e.pass.ObjectOf(id); obj != nil {
			st = st.Set(obj, keyV)
		}
	}
	if id, ok := n.Value.(*ast.Ident); ok && id.Name != "_" {
		if obj := e.pass.ObjectOf(id); obj != nil {
			st = st.Set(obj, valV)
		}
	}
	return st
}

// eval computes the taint of an expression under st, emitting escape
// and sink events when emit is non-nil.
func (e *taintEngine) eval(st analysis.TaintState, x ast.Expr, emit func(taintEvent)) analysis.TaintVal {
	switch x := x.(type) {
	case *ast.Ident:
		if obj := e.pass.ObjectOf(x); obj != nil {
			return st[obj]
		}
		return analysis.TaintVal{}
	case *ast.ParenExpr:
		return e.eval(st, x.X, emit)
	case *ast.BasicLit, *ast.FuncLit:
		return analysis.TaintVal{}
	case *ast.SelectorExpr:
		// package-qualified name or field read
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := e.pass.ObjectOf(id).(*types.PkgName); isPkg {
				return analysis.TaintVal{}
			}
		}
		return e.eval(st, x.X, emit)
	case *ast.StarExpr:
		return e.eval(st, x.X, emit)
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			e.eval(st, x.X, emit)
			return analysis.TaintVal{} // cross-goroutine flow is out of scope
		}
		return e.eval(st, x.X, emit)
	case *ast.BinaryExpr:
		l := e.eval(st, x.X, emit)
		r := e.eval(st, x.Y, emit)
		v := mergeVals(l, r)
		switch x.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			// a comparison turns the value into a branch decision — a
			// wall-clock read steering control flow escapes the
			// instrumentation family.
			if clockEscaping(v.Kinds) {
				e.emitEv(emit, taintEvent{kind: evClockEscape, pos: x.Pos(), kinds: v.Kinds, src: v.Src, where: "compared (the result steers control flow)"})
				v.Kinds &^= taintClock
			}
		}
		return v
	case *ast.IndexExpr:
		return mergeVals(e.eval(st, x.X, emit), e.eval(st, x.Index, emit))
	case *ast.SliceExpr:
		return e.eval(st, x.X, emit)
	case *ast.TypeAssertExpr:
		return e.eval(st, x.X, emit)
	case *ast.CompositeLit:
		return e.evalComposite(st, x, emit)
	case *ast.CallExpr:
		return e.evalCall(st, x, emit)
	case *ast.KeyValueExpr:
		return e.eval(st, x.Value, emit)
	}
	return analysis.TaintVal{}
}

func mergeVals(a, b analysis.TaintVal) analysis.TaintVal {
	out := a
	out.Kinds |= b.Kinds
	if out.Src == "" {
		out.Src = b.Src
	}
	return out
}

func (e *taintEngine) evalComposite(st analysis.TaintState, x *ast.CompositeLit, emit func(taintEvent)) analysis.TaintVal {
	t := e.pass.TypeOf(x)
	_, isStruct := underlyingStruct(t)
	var out analysis.TaintVal
	for _, el := range x.Elts {
		v := e.eval(st, el, emit)
		if isStruct {
			// A clock value stored in a time-typed struct field is an
			// instrumentation column; tracking ends at the store.
			if ft := e.fieldTypeOf(x, el); isTimeFamily(ft) {
				v.Kinds &^= taintClock
			}
		}
		out = mergeVals(out, v)
	}
	return out
}

func underlyingStruct(t types.Type) (*types.Struct, bool) {
	if t == nil {
		return nil, false
	}
	s, ok := t.Underlying().(*types.Struct)
	return s, ok
}

// fieldTypeOf resolves the struct field type a composite-literal element
// initializes, or nil.
func (e *taintEngine) fieldTypeOf(lit *ast.CompositeLit, el ast.Expr) types.Type {
	if kv, ok := el.(*ast.KeyValueExpr); ok {
		if id, ok := kv.Key.(*ast.Ident); ok {
			if obj := e.pass.Pkg.Info.Uses[id]; obj != nil {
				return obj.Type()
			}
			// struct keys live in Info.Uses for typechecked literals;
			// fall back to the element's own type
		}
		return e.pass.TypeOf(kv.Value)
	}
	return e.pass.TypeOf(el)
}

// evalCallArgs evaluates a call's function and arguments for their
// events without using the result (go/defer statements).
func (e *taintEngine) evalCallArgs(st analysis.TaintState, call *ast.CallExpr, emit func(taintEvent)) {
	e.evalCall(st, call, emit)
}

func (e *taintEngine) evalCall(st analysis.TaintState, call *ast.CallExpr, emit func(taintEvent)) analysis.TaintVal {
	// Conversions: T(x) preserves determinism taint; a conversion of a
	// clock value to a non-time type is the canonical escape.
	if t, isConv := e.conversionType(call); isConv {
		v := e.eval(st, call.Args[0], emit)
		if !isTimeFamily(t) && clockEscaping(v.Kinds) {
			e.emitEv(emit, taintEvent{kind: evClockEscape, pos: call.Pos(), kinds: v.Kinds, src: v.Src, where: "converted to " + t.String()})
			v.Kinds &^= taintClock
		}
		return v
	}

	fn := calleeFunc(e.pass, call)

	// Builtins.
	if fn == nil {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, isB := e.pass.ObjectOf(id).(*types.Builtin); isB {
				switch id.Name {
				case "len", "cap", "make", "new":
					for _, a := range call.Args {
						e.eval(st, a, emit)
					}
					return analysis.TaintVal{}
				default: // append, min, max, copy, …
					var out analysis.TaintVal
					for _, a := range call.Args {
						out = mergeVals(out, e.eval(st, a, emit))
					}
					return out
				}
			}
		}
		// Indirect call through a function value: propagate
		// conservatively, without treating it as a package boundary.
		var out analysis.TaintVal
		e.eval(st, call.Fun, emit)
		for _, a := range call.Args {
			out = mergeVals(out, e.eval(st, a, emit))
		}
		return out
	}

	// Wall-clock sources.
	if pkgPathIs(fn.Pkg(), "time") && walltimeCalls[fn.Name()] {
		for _, a := range call.Args {
			e.eval(st, a, emit)
		}
		return analysis.TaintVal{Kinds: taintClock, Src: "time." + fn.Name()}
	}

	// Raw randomness: the package-level functions of math/rand and
	// math/rand/v2 draw from the shared global source, which is not
	// derived from the spec seed. Methods on a *rand.Rand value are
	// clean — in contract packages every Rand comes from rngx (the
	// rngsource analyzer enforces construction), so its draws are a
	// pure function of the seed.
	if fnPkgIsRand(fn) {
		for _, a := range call.Args {
			e.eval(st, a, emit)
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil && !strings.HasPrefix(fn.Name(), "New") {
			// Constructors (New, NewSource, NewPCG, …) build a generator
			// deterministically from their seed; only the draws from the
			// global source are tainted.
			return analysis.TaintVal{Kinds: taintRand, Src: fn.Pkg().Name() + "." + fn.Name()}
		}
		return analysis.TaintVal{}
	}

	// Hash sinks: writes into a hash.Hash build the run fingerprint.
	if ev, handled := e.hashSink(st, call, fn, emit); handled {
		return ev
	}

	recvTaint, argTaints := e.callOperands(st, call, fn, emit)

	// Methods on time.Time/time.Duration: family-preserving arithmetic
	// is allowed; a method whose result leaves the family (UnixNano,
	// Seconds, String, …) escapes.
	if recv := recvExprOf(call); recv != nil && isTimeFamily(e.pass.TypeOf(recv)) {
		v := recvTaint
		for _, a := range argTaints {
			v = mergeVals(v, a)
		}
		if rt := e.resultType(call); !isTimeFamily(rt) && clockEscaping(v.Kinds) {
			e.emitEv(emit, taintEvent{kind: evClockEscape, pos: call.Pos(), kinds: v.Kinds, src: v.Src, where: "read out through " + fn.Name() + "()"})
			v.Kinds &^= taintClock
		}
		return v
	}

	// Callee with a taint fact, in this package or an analyzed one:
	// kinds the callee introduces, plus the taint of arguments whose
	// parameter reaches a result, escape or sink.
	var tf TaintFact
	if e.pass.ImportObjectFact(fn, &tf) {
		return e.applySummary(call, tf, recvTaint, argTaints, emit)
	}

	// No fact: a conservative union. Within the package (round 1 of
	// the fact pass, interface methods) that is all; a clock-tainted
	// operand handed to another package's API escapes the
	// instrumentation family (time-package helpers were handled above).
	v := recvTaint
	for _, a := range argTaints {
		v = mergeVals(v, a)
	}
	if fn.Pkg() != e.pass.Pkg.Types && clockEscaping(v.Kinds) && !pkgPathIs(fn.Pkg(), "time") {
		e.emitEv(emit, taintEvent{kind: evClockEscape, pos: call.Pos(), kinds: v.Kinds, src: v.Src, where: "passed to " + calleeLabel(fn)})
		v.Kinds &^= taintClock
	}
	return v
}

// callOperands evaluates the receiver and arguments of a resolved call.
func (e *taintEngine) callOperands(st analysis.TaintState, call *ast.CallExpr, fn *types.Func, emit func(taintEvent)) (analysis.TaintVal, []analysis.TaintVal) {
	var recvTaint analysis.TaintVal
	if recv := recvExprOf(call); recv != nil {
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			recvTaint = e.eval(st, recv, emit)
		}
	}
	args := make([]analysis.TaintVal, len(call.Args))
	for i, a := range call.Args {
		args[i] = e.eval(st, a, emit)
	}
	return recvTaint, args
}

// applySummary folds a callee summary into the call's result taint and
// re-raises escapes/sinks the callee performs on tainted arguments.
func (e *taintEngine) applySummary(call *ast.CallExpr, sum TaintFact, recvTaint analysis.TaintVal, argTaints []analysis.TaintVal, emit func(taintEvent)) analysis.TaintVal {
	operands := append([]analysis.TaintVal{recvTaint}, argTaints...)
	// When the callee has no receiver, parameter 0 is the first arg.
	fn := calleeFunc(e.pass, call)
	if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() == nil {
		operands = argTaints
	}
	out := analysis.TaintVal{Kinds: sum.Ret & taintKinds, Src: sum.Src}
	for i, op := range operands {
		b := paramBit(i)
		if b == 0 || op.Kinds&taintKinds == 0 {
			continue
		}
		if sum.Ret&b != 0 {
			out = mergeVals(out, op)
		}
		if sum.Escapes&b != 0 && op.Kinds&taintClock != 0 {
			e.emitEv(emit, taintEvent{kind: evClockEscape, pos: call.Pos(), kinds: op.Kinds, src: op.Src, where: "passed to " + fn.Name() + ", which lets it escape"})
		}
		if sum.Sinks&b != 0 {
			e.emitEv(emit, taintEvent{kind: evHashSink, pos: call.Pos(), kinds: op.Kinds & taintKinds, src: op.Src, where: "via " + fn.Name()})
		}
	}
	return out
}

// hashSink recognizes fingerprint writes: fmt.Fprint* with a hash as
// the writer, or Write/WriteString/Sum methods on a hash value. Tainted
// operands are reported; the call result carries no taint.
func (e *taintEngine) hashSink(st analysis.TaintState, call *ast.CallExpr, fn *types.Func, emit func(taintEvent)) (analysis.TaintVal, bool) {
	sinkArgs := -1 // index of the first data argument
	switch {
	case pkgPathIs(fn.Pkg(), "fmt") && strings.HasPrefix(fn.Name(), "Fprint"):
		if len(call.Args) > 0 && isHashType(e.pass.TypeOf(call.Args[0])) {
			sinkArgs = 1
		}
	case fn.Name() == "Write" || fn.Name() == "WriteString" || fn.Name() == "Sum":
		if recv := recvExprOf(call); recv != nil && isHashType(e.pass.TypeOf(recv)) {
			sinkArgs = 0
		}
	}
	if sinkArgs < 0 {
		return analysis.TaintVal{}, false
	}
	for i, a := range call.Args {
		v := e.eval(st, a, emit)
		if i >= sinkArgs && v.Kinds&taintKinds != 0 {
			e.emitEv(emit, taintEvent{kind: evHashSink, pos: a.Pos(), kinds: v.Kinds & taintKinds, src: v.Src})
		}
		// In summary mode, a param bit reaching the hash marks the
		// parameter as sink-feeding.
		if i >= sinkArgs && v.Kinds&^taintKinds != 0 {
			e.emitEv(emit, taintEvent{kind: evHashSink, pos: a.Pos(), kinds: v.Kinds &^ taintKinds})
		}
	}
	return analysis.TaintVal{}, true
}

func (e *taintEngine) emitEv(emit func(taintEvent), ev taintEvent) {
	if emit == nil {
		return
	}
	if e.summaryMode {
		// keep only param-flow information
		if ev.kinds&^taintKinds == 0 {
			return
		}
	} else if ev.kinds&taintKinds == 0 {
		return
	}
	emit(ev)
}

// conversionType reports whether the call is a type conversion, and to
// what type.
func (e *taintEngine) conversionType(call *ast.CallExpr) (types.Type, bool) {
	if len(call.Args) != 1 {
		return nil, false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, ok := e.pass.ObjectOf(fun).(*types.TypeName); ok {
			return e.pass.TypeOf(call.Fun), true
		}
	case *ast.SelectorExpr:
		if _, ok := e.pass.ObjectOf(fun.Sel).(*types.TypeName); ok {
			return e.pass.TypeOf(call.Fun), true
		}
	case *ast.ArrayType, *ast.MapType, *ast.InterfaceType:
		return e.pass.TypeOf(call.Fun), true
	}
	return nil, false
}

// resultType is the call's (single) result type, or nil.
func (e *taintEngine) resultType(call *ast.CallExpr) types.Type {
	return e.pass.TypeOf(call)
}

// recvExprOf returns the receiver expression of a method-shaped call.
func recvExprOf(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

func calleeLabel(fn *types.Func) string {
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// isTimeFamily reports whether values of t are transparently time-typed
// instrumentation: time.Time, time.Duration, pointers/slices/arrays of
// them.
func isTimeFamily(t types.Type) bool {
	switch t := t.(type) {
	case nil:
		return false
	case *types.Pointer:
		return isTimeFamily(t.Elem())
	case *types.Slice:
		return isTimeFamily(t.Elem())
	case *types.Array:
		return isTimeFamily(t.Elem())
	case *types.Named:
		obj := t.Obj()
		return (obj.Name() == "Time" || obj.Name() == "Duration" || obj.Name() == "Month" || obj.Name() == "Weekday") && pkgPathIs(obj.Pkg(), "time")
	}
	return false
}

// fnPkgIsRand recognizes the unseeded randomness packages.
func fnPkgIsRand(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == "math/rand" || p == "math/rand/v2" || strings.HasSuffix(p, "/math/rand")
}

// isHashType recognizes hash.Hash-shaped values: named types (or
// pointers to them) declared in package hash or one of its children
// (hash/fnv, hash/maphash, …), plus crypto hash states.
func isHashType(t types.Type) bool {
	switch t := t.(type) {
	case nil:
		return false
	case *types.Pointer:
		return isHashType(t.Elem())
	case *types.Named:
		pkg := t.Obj().Pkg()
		if pkg == nil {
			return false
		}
		p := pkg.Path()
		return p == "hash" || strings.HasPrefix(p, "hash/") || strings.HasSuffix(p, "/hash")
	case *types.Interface:
		return false
	}
	return false
}
