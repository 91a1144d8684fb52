package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestExitCodes pins the contract CI's lint job gates on: run on a
// module named repro (the suite's scope), sopslint exits 2 with the
// findings as a JSON array, 0 with [] once the code is clean, and 1 when
// the packages cannot be loaded.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module repro\n\ngo 1.24\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)
	for _, tc := range []struct {
		name      string
		src       string
		code      int
		analyzers []string // findings in order; ignored on exit 1
	}{
		{"math/rand import", "package repro\n\nimport \"math/rand\"\n\nfunc Roll() int { return rand.Intn(6) }\n", 2, []string{"rngsource"}},
		{"clean", "package repro\n\nfunc Roll() int { return 4 }\n", 0, []string{}},
		{"type error", "package repro\n\nfunc Roll() int { return undefined }\n", 1, nil},
	} {
		if err := os.WriteFile("x.go", []byte(tc.src), 0o666); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		code := run([]string{"-json", "./..."}, &stdout, &stderr)
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d; stderr: %s", tc.name, code, tc.code, stderr.String())
			continue
		}
		if code == 1 {
			continue
		}
		var diags []jsonDiag
		if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil || diags == nil {
			t.Errorf("%s: stdout is not a JSON array (%v): %q", tc.name, err, stdout.String())
			continue
		}
		got := []string{}
		for _, d := range diags {
			got = append(got, d.Analyzer)
		}
		if !reflect.DeepEqual(got, tc.analyzers) {
			t.Errorf("%s: findings %+v, want analyzers %v", tc.name, diags, tc.analyzers)
		}
	}
}
