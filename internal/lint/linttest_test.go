package lint

// This file is the corpus harness: an analysistest-style runner over the
// GOPATH-shaped trees under testdata/src. Corpus sources mark every
// expected finding with a trailing comment
//
//	code() // want "regexp matching the message"
//
// (or the block form /* want "..." */ when the line's trailing comment
// position is taken by an annotation under test). The harness runs the
// given checks through lint.Run — fact pass included — and fails on
// any unexpected or missing diagnostic, so each corpus pins both the
// flagged and the allowed cases.

import (
	"regexp"
	"strconv"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

var (
	wantRE    = regexp.MustCompile(`want((?:\s+"(?:[^"\\]|\\.)*")+)\s*(?:\*/)?\s*$`)
	wantStrRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
)

type wantMarker struct {
	posStr string
	re     *regexp.Regexp
	hit    bool
}

// soloCheck runs one analyzer on every corpus package, with no
// package-path scoping: scoping is the suite driver's concern and has
// its own test.
func soloCheck(a *analysis.Analyzer) []Check { return []Check{{Analyzer: a}} }

// runCorpus loads testdata/src/<path> for each path, applies the checks
// through lint.Run and compares the diagnostics line by line against
// the corpus's want markers.
func runCorpus(t *testing.T, checks []Check, paths ...string) {
	t.Helper()
	pkgs, err := load.Corpus("testdata", paths...)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkgs, checks)
	if err != nil {
		t.Fatal(err)
	}

	type lineKey struct {
		file string
		line int
	}
	wants := map[lineKey][]*wantMarker{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, q := range wantStrRE.FindAllString(m[1], -1) {
						pat, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s: malformed want marker %s: %v", pos, q, err)
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: malformed want regexp %q: %v", pos, pat, err)
						}
						k := lineKey{pos.Filename, pos.Line}
						wants[k] = append(wants[k], &wantMarker{posStr: pos.String(), re: re})
					}
				}
			}
		}
	}

	for _, d := range diags {
		k := lineKey{d.Pos.Filename, d.Pos.Line}
		matched := false
		for _, w := range wants[k] {
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic [%s] %s", d.Pos, d.Analyzer, d.Message)
		}
	}
	for _, ws := range wants {
		for _, w := range ws {
			if !w.hit {
				t.Errorf("%s: no diagnostic matching %q", w.posStr, w.re)
			}
		}
	}
}
