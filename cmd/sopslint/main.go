// Command sopslint is the multichecker for this repository's ten
// contract analyzers (rngsource, walltime, ctxflow, tokenpair, goroleak,
// chansend, dettaint, speccoverage, errverbatim, allocfree — see
// internal/lint and DESIGN.md "Mechanized contracts").
//
// It runs two ways:
//
//	sopslint ./...                  # standalone over package patterns
//	sopslint -json ./...            # standalone, diagnostics as JSON
//	go vet -vettool=$(pwd)/sopslint ./...   # as a vet tool in CI
//
// The vettool mode speaks cmd/go's unitchecker protocol: -V=full prints
// a content-addressed version for the build cache, -flags describes the
// (empty) flag set, and a trailing *.cfg argument names the JSON
// compilation-unit config `go vet` hands the tool per package. Facts
// flow between units as .vetx files: each unit decodes the fact sets of
// its dependencies (a truncated or corrupt file is a hard error, not a
// silent skip), publishes its own exports, and writes the merged set to
// the unit's VetxOutput, so cross-package analysis under `go vet`
// matches the in-process meta-test exactly. There is no suppression
// directive: a finding is fixed in the code.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

func main() {
	args := os.Args[1:]
	for _, a := range args {
		if a == "-V=full" || a == "--V=full" {
			printVersion()
			return
		}
		if a == "-flags" || a == "--flags" {
			// No tool-level flags under vet: the suite's scoping is
			// policy, not configuration (DefaultChecks). -json is
			// standalone-only.
			fmt.Println("[]")
			return
		}
	}
	if len(args) > 0 && strings.HasSuffix(args[len(args)-1], ".cfg") {
		os.Exit(unitcheck(args[len(args)-1]))
	}
	asJSON := false
	var patterns []string
	for _, a := range args {
		if a == "-json" || a == "--json" {
			asJSON = true
			continue
		}
		patterns = append(patterns, a)
	}
	os.Exit(standalone(patterns, asJSON))
}

// printVersion emits the `name version devel ... buildID=hash` line
// cmd/go's build cache keys vet results on: the hash of this executable
// stands in for the analyzer suite's identity.
func printVersion() {
	prog, _ := os.Executable()
	data, err := os.ReadFile(prog)
	if err != nil {
		fmt.Printf("%s version devel\n", filepath.Base(os.Args[0]))
		return
	}
	sum := sha256.Sum256(data)
	fmt.Printf("%s version devel comments-go-here buildID=%x\n", filepath.Base(os.Args[0]), sum[:16])
}

// jsonDiag is the machine-readable diagnostic shape emitted by -json:
// stable field names for CI annotation tooling.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// standalone loads the patterns (default ./...) and prints diagnostics —
// human-readable lines on stderr, or with asJSON a JSON array on stdout
// (always an array, [] when clean, so consumers need no special cases).
func standalone(patterns []string, asJSON bool) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Packages("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sopslint:", err)
		return 1
	}
	diags, err := lint.Run(pkgs, lint.DefaultChecks())
	if err != nil {
		fmt.Fprintln(os.Stderr, "sopslint:", err)
		return 1
	}
	if asJSON {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "sopslint:", err)
			return 1
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// unitcheck analyzes one compilation unit described by a vet.cfg file.
//
// Units outside this module (the standard library, vendored deps) are
// not typechecked at all — they get a header-only facts file so
// dependents can still open their .vetx. Module units are always
// parsed and typechecked, even when vet asks for facts only
// (VetxOnly), because their exports feed every dependent unit.
func unitcheck(cfgPath string) int {
	res, err := load.Unit(cfgPath, analyzable)
	if err != nil {
		if errors.Is(err, load.ErrTypecheckTolerated) {
			return 0
		}
		fmt.Fprintln(os.Stderr, "sopslint:", err)
		return 1
	}
	if res.Pkg == nil {
		return 0 // out-of-scope unit: header-only vetx already written
	}
	exit := 0
	var diags []analysis.Diagnostic
	if res.VetxOnly {
		lint.ExportFacts(res.Pkg)
	} else {
		diags, err = lint.Run([]*analysis.Package{res.Pkg}, lint.DefaultChecks())
		if err != nil {
			fmt.Fprintln(os.Stderr, "sopslint:", err)
			return 1
		}
	}
	// Write the facts before reporting: vet caches and reuses the
	// .vetx for dependent units whether or not this one had findings.
	if res.VetxOutput != "" {
		if err := load.WriteVetx(res.VetxOutput, res.Pkg.Facts); err != nil {
			fmt.Fprintln(os.Stderr, "sopslint:", err)
			return 1
		}
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		exit = 2
	}
	return exit
}

// analyzable reports whether the import path (possibly carrying vet's
// test-variant suffix) belongs to this module — the scope whose source
// sopslint parses and whose facts it computes.
func analyzable(importPath string) bool {
	p := importPath
	if i := strings.IndexByte(p, ' '); i >= 0 {
		p = p[:i]
	}
	return p == "repro" || strings.HasPrefix(p, "repro/")
}
