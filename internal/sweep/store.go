package sweep

import (
	"container/list"
	"sync"

	"repro/internal/experiment"
	"repro/internal/infotheory"
)

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

// CacheStore fronts any ResultStore with an in-memory LRU bounded in
// bytes (the EnginePool retained-bytes idiom applied to results): repeat
// loads of the same run — a session regenerating figures over one grid,
// a coordinator resuming the same sweep — are served from memory without
// touching the inner store. Entries are accounted by resultBytes and
// evicted least-recently-used once the bound is exceeded; an entry
// larger than the whole bound is passed through uncached.
//
// The cache holds private deep copies and returns a fresh deep copy per
// Load, so callers can mutate what they get back (exactly as they can
// with gob-decoded results) without corrupting later loads. CacheStore
// is for trimmed results: the Ensemble/Observers pointers sweeps never
// persist are not deep-copied.
type CacheStore struct {
	inner ResultStore
	max   int

	mu      sync.Mutex
	ll      *list.List // most-recent at front; values are *cacheEntry
	entries map[storeKey]*list.Element
	bytes   int
}

type storeKey struct {
	id string
	fp uint64
}

type cacheEntry struct {
	key   storeKey
	res   *experiment.Result
	bytes int
}

// NewCacheStore wraps inner with an LRU cache of at most maxBytes of
// result payload (maxBytes <= 0 disables caching: every call passes
// through).
func NewCacheStore(inner ResultStore, maxBytes int) *CacheStore {
	return &CacheStore{
		inner:   inner,
		max:     maxBytes,
		ll:      list.New(),
		entries: make(map[storeKey]*list.Element),
	}
}

// Load serves from memory when it can, falling back to — and populating
// from — the inner store.
func (c *CacheStore) Load(id string, fp uint64) (*experiment.Result, bool) {
	k := storeKey{id, fp}
	c.mu.Lock()
	if el, ok := c.entries[k]; ok {
		c.ll.MoveToFront(el)
		res := copyResult(el.Value.(*cacheEntry).res)
		c.mu.Unlock()
		return res, true
	}
	c.mu.Unlock()
	res, ok := c.inner.Load(id, fp)
	if !ok {
		return nil, false
	}
	c.insert(k, res)
	return res, true
}

// Save writes through to the inner store first — the durable copy is the
// one crash recovery depends on — and caches on success.
func (c *CacheStore) Save(id string, fp uint64, res *experiment.Result) error {
	if err := c.inner.Save(id, fp, res); err != nil {
		return err
	}
	c.insert(storeKey{id, fp}, res)
	return nil
}

// insert stores a private copy of res under k and evicts from the LRU
// tail until the byte bound holds again.
func (c *CacheStore) insert(k storeKey, res *experiment.Result) {
	n := resultBytes(res)
	if n > c.max {
		return // larger than the whole cache: pass through uncached
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		old := el.Value.(*cacheEntry)
		c.bytes += n - old.bytes
		old.res, old.bytes = copyResult(res), n
		c.ll.MoveToFront(el)
	} else {
		c.entries[k] = c.ll.PushFront(&cacheEntry{key: k, res: copyResult(res), bytes: n})
		c.bytes += n
	}
	for c.bytes > c.max {
		el := c.ll.Back()
		ent := el.Value.(*cacheEntry)
		c.ll.Remove(el)
		delete(c.entries, ent.key)
		c.bytes -= ent.bytes
	}
}

// Len reports the number of cached entries; Bytes the accounted payload.
func (c *CacheStore) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes reports the accounted payload size of the cached entries.
func (c *CacheStore) Bytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// resultBytes estimates the retained payload of a trimmed result — the
// slice data plus a fixed per-entry overhead — mirroring the
// EnginePool retained-bytes accounting.
func resultBytes(r *experiment.Result) int {
	b := 128 + len(r.Name)
	b += 8 * (len(r.Times) + len(r.MI) + len(r.MIStdErr) + len(r.Labels))
	for i := range r.Decomp {
		b += 24 + 8*len(r.Decomp[i].Within)
	}
	b += 16 * len(r.Entropies)
	return b
}

// copyResult deep-copies the persisted (curve-level) fields of a result.
// Ensemble and Observers are runtime-only and never survive a store, so
// they are carried as-is (nil on every trimmed result).
func copyResult(r *experiment.Result) *experiment.Result {
	c := *r
	c.Times = append([]int(nil), r.Times...)
	c.MI = append([]float64(nil), r.MI...)
	c.MIStdErr = append([]float64(nil), r.MIStdErr...)
	c.Labels = append([]int(nil), r.Labels...)
	if r.Decomp != nil {
		c.Decomp = make([]infotheory.Decomposition, len(r.Decomp))
		for i, d := range r.Decomp {
			d.Within = append([]float64(nil), d.Within...)
			c.Decomp[i] = d
		}
	}
	c.Entropies = append([]infotheory.EntropyProfile(nil), r.Entropies...)
	return &c
}
