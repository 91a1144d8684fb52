// Command sopslint runs this repository's contract analyzers (DESIGN.md,
// "Mechanized contracts", names them) over package patterns:
//
//	sopslint ./...          # diagnostics on stderr
//	sopslint -json ./...    # diagnostics as a JSON array on stdout
//
// It is the suite's one driver, shared with internal/lint's
// TestRepoIsClean: load.Packages typechecks the module's packages in
// dependency order over one fact store, and lint.Run applies
// lint.DefaultChecks. The exit status is 0 when clean, 2 when there are
// findings and 1 when the flags, loading or analysis fail. There is no
// suppression directive: a finding is fixed in the code.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
	"repro/internal/lint/load"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
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

// run loads the patterns (default ./...) and prints diagnostics —
// human-readable lines on stderr, or with -json a JSON array on stdout
// (always an array, [] when clean, so consumers need no special cases)
// — and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sopslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "print diagnostics as a JSON array on stdout")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Packages("", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "sopslint:", err)
		return 1
	}
	diags, err := lint.Run(pkgs, lint.DefaultChecks())
	if err != nil {
		fmt.Fprintln(stderr, "sopslint:", err)
		return 1
	}
	if *asJSON {
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
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "sopslint:", err)
			return 1
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(stderr, "%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
