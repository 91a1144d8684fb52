package sweep

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiment"
	"repro/internal/infotheory"
	"repro/internal/spec"
)

// runFile is the on-disk representation of one completed sweep run:
// explicit exported fields, a version guard for format evolution, and an
// identity (ID + spec fingerprint) that must match before a checkpoint is
// trusted. Only the curve-level
// payload is persisted — aggregation needs nothing else, and it keeps a
// paper-scale sweep's checkpoint directory at kilobytes per run.
type runFile struct {
	Version     int
	ID          string
	Fingerprint uint64

	Name  string
	Times []int
	MI    []float64
	// MIStdErr is the approximate tier's per-step standard error; nil on
	// exact-tier runs. gob tolerates its absence, so checkpoints written
	// before the tier existed keep decoding (the field stays nil).
	MIStdErr             []float64
	Decomp               []infotheory.Decomposition
	Entropies            []infotheory.EntropyProfile
	Labels               []int
	EquilibratedFraction float64
}

const runFileVersion = 1

// fingerprint derives the run's checkpoint identity. It is
// spec.PipelineFingerprint — the declarative spec layer owns the one
// stable fingerprint recipe, and the checkpoint key is its single-run
// case, so checkpoints written before the spec layer existed keep
// verifying. ok is false when the force is a custom Scaling with no
// serialisable spec — such runs are recomputed rather than resumed, since
// their identity cannot be pinned.
func fingerprint(ss experiment.SweepSpec) (fp uint64, ok bool) {
	return spec.PipelineFingerprint(ss.ID, ss.Pipeline)
}

// runFilePath names the run's file: the sanitised ID plus the
// fingerprint, so distinct specs can never collide on a file even if
// their IDs sanitise identically.
func runFilePath(dir, id string, fp uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%016x.run.gob", sanitizeID(id), fp))
}

// sanitizeID maps a spec ID onto the filename-safe alphabet.
func sanitizeID(id string) string {
	return strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
			return c
		default:
			return '_'
		}
	}, id)
}

// RemoveStaleTemps deletes leftover .tmp-run-* files from a checkpoint
// directory and reports how many it removed. These are the remnants of a
// process killed between CreateTemp and Rename in writeRunFile: never
// a valid checkpoint (a resume ignores them by name), but they
// accumulate across crashes. Completed checkpoints and anything else in
// the directory are untouched. A missing directory removes nothing and
// is not an error, so callers can sweep before the first run ever
// creates the directory.
func RemoveStaleTemps(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("sweep: scanning checkpoint dir: %w", err)
	}
	removed := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), ".tmp-run-") {
			continue
		}
		// A temp gone since ReadDir was a live writer's, renamed into
		// place, or already removed by another sweep: nothing to do.
		err := os.Remove(filepath.Join(dir, e.Name()))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return removed, fmt.Errorf("sweep: removing stale temp: %w", err)
		}
		removed++
	}
	return removed, nil
}

// CheckUniqueIDs rejects duplicate spec IDs, which would otherwise
// silently share store entries (and, distributed, wire frames).
func CheckUniqueIDs(specs []experiment.SweepSpec) error {
	seen := make(map[string]int, len(specs))
	for i, spec := range specs {
		if j, dup := seen[spec.ID]; dup {
			return fmt.Errorf("sweep: specs %d and %d share ID %q; checkpoint IDs must be unique", j, i, spec.ID)
		}
		seen[spec.ID] = i
	}
	return nil
}

// readRunFile restores a completed run if a matching checkpoint file
// exists. Any mismatch — missing file, undecodable payload, wrong
// version, ID or fingerprint — means "recompute"; a stale or foreign
// file is never an error, it is simply not a checkpoint for this spec.
func readRunFile(dir, id string, fp uint64) (*experiment.Result, bool) {
	f, err := os.Open(runFilePath(dir, id, fp))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	var rec runFile
	if err := gob.NewDecoder(f).Decode(&rec); err != nil {
		return nil, false
	}
	if rec.Version != runFileVersion || rec.ID != id || rec.Fingerprint != fp {
		return nil, false
	}
	return &experiment.Result{
		Name:                 rec.Name,
		Times:                rec.Times,
		MI:                   rec.MI,
		MIStdErr:             rec.MIStdErr,
		Decomp:               rec.Decomp,
		Entropies:            rec.Entropies,
		Labels:               rec.Labels,
		EquilibratedFraction: rec.EquilibratedFraction,
	}, true
}

// writeAttempts bounds how often writeRunFile starts over after its temp
// file was swept away. Each process sweeps a directory once, when it
// opens it, so a write is hit at most once per process started during
// it.
const writeAttempts = 16

// writeRunFile persists a completed (already trimmed) run. The write
// goes through a temp file in the same directory plus a rename, so a
// kill mid-write leaves no half-checkpoint that a resume could trust.
// A process opening the directory meanwhile cannot tell that temp from a
// killed writer's and may remove it (RemoveStaleTemps); the rename then
// finds no file, and the write starts over.
func writeRunFile(dir, id string, fp uint64, res *experiment.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	rec := runFile{
		Version:              runFileVersion,
		ID:                   id,
		Fingerprint:          fp,
		Name:                 res.Name,
		Times:                res.Times,
		MI:                   res.MI,
		MIStdErr:             res.MIStdErr,
		Decomp:               res.Decomp,
		Entropies:            res.Entropies,
		Labels:               res.Labels,
		EquilibratedFraction: res.EquilibratedFraction,
	}
	path := runFilePath(dir, id, fp)
	for attempt := 1; ; attempt++ {
		tmp, err := os.CreateTemp(dir, ".tmp-run-*")
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		if err := gob.NewEncoder(tmp).Encode(rec); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("checkpoint: %w", err)
		}
		if err := tmp.Close(); err != nil {
			os.Remove(tmp.Name())
			return fmt.Errorf("checkpoint: %w", err)
		}
		err = os.Rename(tmp.Name(), path)
		if err == nil {
			return nil
		}
		os.Remove(tmp.Name())
		if !errors.Is(err, fs.ErrNotExist) || attempt == writeAttempts {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
}
