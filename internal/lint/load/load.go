// Package load typechecks packages for the sopslint suite without any
// dependency beyond the Go toolchain itself.
//
// Two loaders cover the suite's two consumers:
//
//   - Packages, the one driver's loader (cmd/sopslint and the
//     meta-test), shells out to `go list -export -deps -json`, so every
//     dependency (standard library included) arrives as compiler export
//     data, and only the module's own packages are parsed and
//     typechecked from source, at a fraction of a full source load.
//   - Corpus loads analysistest-style GOPATH-shaped trees
//     (testdata/src/<importpath>/*.go), resolving inter-corpus imports
//     from source and everything else from export data.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// listPkg is the subset of `go list -json` output the loaders consume.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	Module     *struct{ Path string }
}

// goList runs `go list -export -deps -json` for the patterns and returns
// the decoded packages in the order `go list -deps` emits them — a
// depth-first post-order, so every package follows all of its
// dependencies — plus an index by import path.
func goList(dir string, patterns ...string) ([]*listPkg, map[string]*listPkg, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,Module",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var ordered []*listPkg
	pkgs := map[string]*listPkg{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		q := p
		ordered = append(ordered, &q)
		pkgs[p.ImportPath] = &q
	}
	return ordered, pkgs, nil
}

// exportLookup returns an importer lookup function serving export data
// files out of a go list result.
func exportLookup(pkgs map[string]*listPkg) func(path string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		p := pkgs[path]
		if p == nil || p.Export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(p.Export)
	}
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// Packages loads, parses and typechecks the module packages matched by
// the patterns (run in dir; "" means the current directory). Test files
// are not part of the returned packages — `go list` GoFiles excludes
// them — matching the suite's production-code-only scope.
//
// Packages are returned in dependency order (every package after all of
// its dependencies) and share one analysis.FactSet, so a driver that
// visits them in order sees each package's exported facts when analyzing
// its dependents.
func Packages(dir string, patterns ...string) ([]*analysis.Package, error) {
	ordered, byPath, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exportLookup(byPath))
	facts := analysis.NewFactSet()

	var out []*analysis.Package
	for _, p := range ordered {
		if p.Standard || p.Module == nil {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %w", name, err)
			}
			files = append(files, f)
		}
		info := newInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("typechecking %s: %w", p.ImportPath, err)
		}
		out = append(out, &analysis.Package{
			Path: p.ImportPath, Fset: fset, Files: files, Types: tpkg, Info: info, Facts: facts,
		})
	}
	return out, nil
}

// Corpus loads the named packages from an analysistest-style tree: each
// path names a directory root/src/<path> holding one package's files.
// Imports between corpus packages resolve from source; all other imports
// resolve from toolchain export data.
func Corpus(root string, paths ...string) ([]*analysis.Package, error) {
	fset := token.NewFileSet()
	type corpusPkg struct {
		path    string
		files   []*ast.File
		imports []string
	}
	byPath := map[string]*corpusPkg{}
	inCorpus := map[string]bool{}
	for _, p := range paths {
		inCorpus[p] = true
	}

	var external []string
	seenExt := map[string]bool{}
	for _, path := range paths {
		dir := filepath.Join(root, "src", filepath.FromSlash(path))
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("corpus package %s: %w", path, err)
		}
		cp := &corpusPkg{path: path}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("corpus package %s: %w", path, err)
			}
			cp.files = append(cp.files, f)
			for _, spec := range f.Imports {
				ip := strings.Trim(spec.Path.Value, `"`)
				cp.imports = append(cp.imports, ip)
				if !inCorpus[ip] && !seenExt[ip] {
					seenExt[ip] = true
					external = append(external, ip)
				}
			}
		}
		if len(cp.files) == 0 {
			return nil, fmt.Errorf("corpus package %s: no Go files", path)
		}
		byPath[path] = cp
	}

	exported := map[string]*listPkg{}
	if len(external) > 0 {
		sort.Strings(external)
		var err error
		_, exported, err = goList("", external...)
		if err != nil {
			return nil, err
		}
	}

	checked := map[string]*types.Package{}
	baseImporter := importer.ForCompiler(fset, "gc", exportLookup(exported))
	imp := importerFunc(func(path string) (*types.Package, error) {
		if tp := checked[path]; tp != nil {
			return tp, nil
		}
		return baseImporter.Import(path)
	})

	// Typecheck in dependency order so corpus-internal imports resolve.
	var order []string
	done := map[string]bool{}
	var visit func(string) error
	visit = func(path string) error {
		if done[path] {
			return nil
		}
		done[path] = true
		for _, ip := range byPath[path].imports {
			if inCorpus[ip] {
				if err := visit(ip); err != nil {
					return err
				}
			}
		}
		order = append(order, path)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}

	// Return in dependency order, sharing one fact store — mirroring
	// Packages, so corpus runs exercise the same fact hand-off the
	// meta-test and sopslint see.
	facts := analysis.NewFactSet()
	var out []*analysis.Package
	for _, path := range order {
		cp := byPath[path]
		info := newInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, fset, cp.files, info)
		if err != nil {
			return nil, fmt.Errorf("typechecking corpus %s: %w", path, err)
		}
		checked[path] = tpkg
		out = append(out, &analysis.Package{Path: path, Fset: fset, Files: cp.files, Types: tpkg, Info: info, Facts: facts})
	}
	return out, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
