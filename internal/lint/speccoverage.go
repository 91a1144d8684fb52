package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// SpecCoverage proves the fingerprint hashes every spec knob.
//
// Contract (DESIGN.md): a run's identity is fully determined by its
// spec, which means the fingerprint must consume every field that can
// change the numbers. The historical failure mode is silent drift: a
// field is added to Pipeline or Config, the estimator reads it, and
// the frozen fingerprint recipe never learns about it — two different
// experiments now share a checkpoint key. SpecCoverage mechanizes the
// review step that catches this:
//
//   - roots are the Fingerprint functions (any declaration named
//     Fingerprint or *Fingerprint); their subject structs are the
//     receiver and module-typed parameters;
//   - the analysis closes over package-local callees and records which
//     fields are read, and which structs are consumed whole (passed to
//     an external call such as fmt.Fprintf("%+v") or json.Marshal,
//     which covers every field transitively);
//   - structs reachable from a subject through module-typed fields are
//     checked field by field: each must be read on some fingerprint
//     path, be inside a whole-consumed struct, or carry an explicit
//     //sopslint:nohash <reason> annotation (read from the struct's
//     NoHashFact, so fields of any package are covered alike);
//   - subject structs declared in the analyzed package must also have
//     a Validate method — a spec that keys results must be checkable.
//
// The annotation requires a reason; a bare //sopslint:nohash is itself
// a diagnostic, so every exclusion is an argued decision in the code.
var SpecCoverage = &analysis.Analyzer{
	Name: "speccoverage",
	Doc:  "require every fingerprint-reachable spec field to be hashed or carry //sopslint:nohash <reason>",
	Run:  runSpecCoverage,
}

func runSpecCoverage(pass *analysis.Pass) error {
	for _, d := range nohashFieldsFor(pass).malformed {
		pass.Reportf(d, "//sopslint:nohash needs a reason — write //sopslint:nohash <why this field cannot affect results>")
	}
	for _, f := range pass.SourceFiles() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !strings.HasSuffix(fd.Name.Name, "Fingerprint") {
				continue
			}
			checkFingerprintRoot(pass, fd)
		}
	}
	return nil
}

// checkFingerprintRoot runs the coverage analysis for one Fingerprint
// declaration.
func checkFingerprintRoot(pass *analysis.Pass, root *ast.FuncDecl) {
	subjects := subjectStructs(pass, root)
	if len(subjects) == 0 {
		return
	}
	closure := fingerprintClosure(pass, root)
	reads, whole := collectUses(pass, closure)
	wholeClosure(pass, whole)

	// BFS the reachable struct set from the subjects, stopping at
	// whole-consumed structs (fully covered) and nohash fields (the
	// annotation argues the subtree cannot affect results).
	seen := map[*types.Named]bool{}
	queue := append([]*types.Named{}, subjects...)
	for len(queue) > 0 {
		named := queue[0]
		queue = queue[1:]
		if seen[named] {
			continue
		}
		seen[named] = true

		obj := named.Obj()
		local := obj.Pkg() == pass.Pkg.Types
		if local && !hasValidateMethod(named, pass.Pkg.Types) && isSubject(subjects, named) {
			pass.Reportf(obj.Pos(), "%s is a fingerprint subject but has no Validate method: a spec that keys results must be checkable before it runs", obj.Name())
		}
		if whole[named] {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			field := st.Field(i)
			if !local && !field.Exported() {
				continue
			}
			if fieldNoHash(pass, named, field.Name()) {
				continue
			}
			if next := moduleNamed(pass, field.Type()); next != nil {
				queue = append(queue, next)
			}
			if reads[field] {
				continue
			}
			if local {
				pass.Reportf(field.Pos(), "field %s.%s is fingerprint-reachable but never hashed: hash it in %s or annotate //sopslint:nohash <reason>; an unhashed knob lets two different experiments share a checkpoint key", obj.Name(), field.Name(), root.Name.Name)
			} else {
				pass.Reportf(root.Name.Pos(), "field %s.%s (package %s) is fingerprint-reachable but never hashed by %s: hash it or annotate //sopslint:nohash <reason> at its declaration; an unhashed knob lets two different experiments share a checkpoint key", obj.Name(), field.Name(), obj.Pkg().Path(), root.Name.Name)
			}
		}
	}
}

// subjectStructs returns the module-local struct types the root
// fingerprints: its receiver and its module-struct-typed parameters.
func subjectStructs(pass *analysis.Pass, fd *ast.FuncDecl) []*types.Named {
	var out []*types.Named
	add := func(e ast.Expr) {
		if named := moduleNamed(pass, pass.TypeOf(e)); named != nil {
			out = append(out, named)
		}
	}
	if fd.Recv != nil {
		for _, field := range fd.Recv.List {
			add(field.Type)
		}
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			add(field.Type)
		}
	}
	return out
}

func isSubject(subjects []*types.Named, named *types.Named) bool {
	for _, s := range subjects {
		if s == named {
			return true
		}
	}
	return false
}

// fingerprintClosure returns the root plus every package-local
// declaration transitively called from it — the code that can feed the
// hash.
func fingerprintClosure(pass *analysis.Pass, root *ast.FuncDecl) []*ast.FuncDecl {
	decls := localDeclsFor(pass)
	inClosure := map[*ast.FuncDecl]bool{root: true}
	work := []*ast.FuncDecl{root}
	for len(work) > 0 {
		fd := work[0]
		work = work[1:]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleeFunc(pass, call); fn != nil {
				if callee := decls[fn]; callee != nil && callee.Body != nil && !inClosure[callee] {
					inClosure[callee] = true
					work = append(work, callee)
				}
			}
			return true
		})
	}
	out := make([]*ast.FuncDecl, 0, len(inClosure))
	for fd := range inClosure {
		out = append(out, fd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// collectUses walks the closure and records field reads (selector
// expressions outside assignment left-hand sides, attributed through
// embedded-field promotion) and whole-struct consumption (a module
// struct passed to a call outside the closure — fmt, encoding/json,
// an indirect call — which observes every field).
func collectUses(pass *analysis.Pass, closure []*ast.FuncDecl) (reads map[*types.Var]bool, whole map[*types.Named]bool) {
	reads = map[*types.Var]bool{}
	whole = map[*types.Named]bool{}
	decls := localDeclsFor(pass)
	inClosure := map[*ast.FuncDecl]bool{}
	for _, fd := range closure {
		inClosure[fd] = true
	}
	for _, fd := range closure {
		lhs := assignTargets(fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if lhs[n] {
					return true
				}
				if sel, ok := pass.Pkg.Info.Selections[n]; ok && sel.Kind() == types.FieldVal {
					markSelectionPath(sel, reads)
				}
			case *ast.CallExpr:
				fn := calleeFunc(pass, n)
				if fn != nil {
					if callee := decls[fn]; callee != nil && inClosure[callee] {
						return true // reads happen inside the closure
					}
				}
				for _, arg := range n.Args {
					if named := moduleNamed(pass, pass.TypeOf(arg)); named != nil {
						whole[named] = true
					}
				}
			}
			return true
		})
	}
	return reads, whole
}

// markSelectionPath records the field a selection denotes, walking the
// embedded-field index path so promoted selectors cover the embedding
// hops too.
func markSelectionPath(sel *types.Selection, reads map[*types.Var]bool) {
	t := sel.Recv()
	for _, idx := range sel.Index() {
		for {
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
				continue
			}
			break
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok || idx >= st.NumFields() {
			return
		}
		field := st.Field(idx)
		reads[field] = true
		t = field.Type()
	}
}

// assignTargets collects the selector expressions appearing on an
// assignment's left-hand side — writes, which must not count as the
// fingerprint reading the field.
func assignTargets(body *ast.BlockStmt) map[ast.Expr]bool {
	out := map[ast.Expr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if st, ok := n.(*ast.AssignStmt); ok {
			for _, l := range st.Lhs {
				out[ast.Unparen(l)] = true
			}
		}
		return true
	})
	return out
}

// wholeClosure extends whole-struct coverage transitively: a struct
// consumed whole (%+v, json.Marshal) observes its module-struct fields
// whole as well.
func wholeClosure(pass *analysis.Pass, whole map[*types.Named]bool) {
	queue := make([]*types.Named, 0, len(whole))
	for named := range whole {
		queue = append(queue, named)
	}
	for len(queue) > 0 {
		named := queue[0]
		queue = queue[1:]
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if next := moduleNamed(pass, st.Field(i).Type()); next != nil && !whole[next] {
				whole[next] = true
				queue = append(queue, next)
			}
		}
	}
}

// moduleNamed unwraps t (through one level of pointer) to a named
// struct type declared in this module — same first import-path segment
// as the analyzed package — or nil. The first-segment rule keeps the
// analyzer testable on bare corpus paths while excluding the standard
// library and any vendored code.
func moduleNamed(pass *analysis.Pass, t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	if firstPathSegment(named.Obj().Pkg().Path()) != firstPathSegment(pass.Pkg.Types.Path()) {
		return nil
	}
	return named
}

func firstPathSegment(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}

func hasValidateMethod(named *types.Named, from *types.Package) bool {
	obj, _, _ := types.LookupFieldOrMethod(named, true, from, "Validate")
	_, ok := obj.(*types.Func)
	return ok
}

// fieldNoHash reports whether the field carries a nohash annotation,
// as the struct's NoHashFact records.
func fieldNoHash(pass *analysis.Pass, named *types.Named, field string) bool {
	var fact NoHashFact
	return pass.ImportObjectFact(named.Obj(), &fact) && slices.Contains(fact.Fields, field)
}

// nohashInfo is the package's parsed //sopslint:nohash annotations:
// per struct TypeName, the excluded field names, plus the positions of
// annotations missing their mandatory reason.
type nohashInfo struct {
	fields    map[types.Object]map[string]bool
	malformed []token.Pos
}

const nohashPrefix = "//sopslint:nohash"

// nohashFieldsFor parses the package's struct declarations for
// field-level //sopslint:nohash annotations (doc comment or line
// comment), memoized so the analyzer and the fact exporter share one
// scan. A malformed annotation still excludes the field — the
// malformed diagnostic is the single report for it.
func nohashFieldsFor(pass *analysis.Pass) *nohashInfo {
	return pass.Pkg.Memo("lint.nohashFields", func() any {
		nh := &nohashInfo{fields: map[types.Object]map[string]bool{}}
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, s := range gd.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					obj := pass.ObjectOf(ts.Name)
					if obj == nil {
						continue
					}
					for _, field := range st.Fields.List {
						ann, pos, ok := nohashAnnotation(field)
						if !ok {
							continue
						}
						if strings.TrimSpace(strings.TrimPrefix(ann, nohashPrefix)) == "" {
							nh.malformed = append(nh.malformed, pos)
						}
						for _, name := range field.Names {
							if nh.fields[obj] == nil {
								nh.fields[obj] = map[string]bool{}
							}
							nh.fields[obj][name.Name] = true
						}
					}
				}
			}
		}
		return nh
	}).(*nohashInfo)
}

// nohashAnnotation scans a struct field's doc and line comments for the
// nohash directive, returning the full comment text and its position.
func nohashAnnotation(field *ast.Field) (string, token.Pos, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, nohashPrefix) {
				return c.Text, c.Pos(), true
			}
		}
	}
	return "", 0, false
}

// exportNoHashFacts publishes a NoHashFact per struct with
// nohash-annotated fields, so speccoverage here and in dependent
// packages sees the exclusions.
func exportNoHashFacts(pass *analysis.Pass) {
	for obj, fields := range nohashFieldsFor(pass).fields {
		names := make([]string, 0, len(fields))
		for name := range fields {
			names = append(names, name)
		}
		sort.Strings(names)
		pass.ExportObjectFact(obj, &NoHashFact{Fields: names})
	}
}
