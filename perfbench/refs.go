package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// refsJSON maps each reference table to the expected output digest at
// every input seed: MI curve bits for pipelines, figure CSV bytes for
// sweeps. A change that alters any output bit fails every op.
//
//go:embed refs.json
var refsJSON []byte

func loadRefs() (map[string][]string, error) {
	var refs map[string][]string
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	return refs, nil
}

// reference is the expected digest of w's output at seed; "" (which no
// digest equals) when refs.json lacks it.
func reference(w workload, seed uint64) string {
	refs, err := loadRefs()
	if err != nil || len(refs[w.ref]) != refSeeds {
		return ""
	}
	return refs[w.ref][inputSeed(seed)]
}

// writeRefs runs every in-process workload once per input seed and
// writes the digests to path; a non-empty only limits it to that
// workload's table, keeping the others.
func writeRefs(ctx context.Context, path, only string) error {
	refs, err := loadRefs()
	if err != nil {
		return err
	}
	done := make(map[string]bool)
	for _, w := range workloads {
		if w.procs > 1 || done[w.ref] || (only != "" && w.name != only) {
			continue
		}
		done[w.ref] = true
		refs[w.ref] = nil
		for s := uint64(0); s < refSeeds; s++ {
			input, err := w.input(s)
			if err != nil {
				return err
			}
			e, cleanup, err := newEnv(w, false, nil)
			if err != nil {
				return err
			}
			p, err := setup(input, e)
			if err != nil {
				cleanup()
				return err
			}
			m := timeOp(ctx, p, e)
			cleanup()
			if m.err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, m.err)
			}
			refs[w.ref] = append(refs[w.ref], m.out.digest)
			fmt.Fprintf(os.Stderr, "%s seed %d: %s (%.2fs, %.2f cpu-s, %.1f MB, %d allocs)\n",
				w.name, s, m.out.digest, m.wall, m.use.cpu, float64(m.use.alloc)/1e6, m.use.mallocs)
		}
	}
	b, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
