package sweep

import "repro/internal/experiment"

// ResultStore persists completed sweep runs keyed by (ID, fingerprint) —
// the one seam every execution mode shares. The Runner resolves each run
// against a store before computing it; distributed workers write their
// runs through the same store (a directory shared between processes), so
// re-handing a run to any worker — or re-handing it after a crash — is
// idempotent by construction. Implementations must be safe for concurrent
// use by multiple goroutines; cross-process safety comes from the
// temp-file+rename discipline of the directory store.
//
// Load returns ok=false on any miss — a missing, stale, corrupt or
// foreign entry is never an error, it is simply not a checkpoint for
// this (id, fp). Save receives an already-trimmed result (curve-level
// fields only) and owns making the write atomic.
type ResultStore interface {
	Load(id string, fp uint64) (*experiment.Result, bool)
	Save(id string, fp uint64, res *experiment.Result) error
}

// DirStore is the directory-backed store: one versioned gob file per run
// (see checkpoint.go for the file format), written with the
// temp-file+rename discipline so a kill mid-write leaves no
// half-checkpoint a resume could trust. File names and bytes are those
// earlier releases wrote, so their checkpoint directories stay valid.
type DirStore struct {
	// Dir is the checkpoint directory; Save creates it on demand.
	Dir string
}

// Load restores a completed run if a matching file exists.
func (d DirStore) Load(id string, fp uint64) (*experiment.Result, bool) {
	return readRunFile(d.Dir, id, fp)
}

// Save persists a completed (already trimmed) run.
func (d DirStore) Save(id string, fp uint64, res *experiment.Result) error {
	return writeRunFile(d.Dir, id, fp, res)
}
