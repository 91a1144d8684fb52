package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiment"
	"repro/internal/workpool"
)

// mapStore is an in-memory inner store that counts loads per key, so
// tests can see exactly which lookups fell through a fronting cache.
type mapStore struct {
	mu    sync.Mutex
	m     map[storeKey]*experiment.Result
	loads map[storeKey]int
}

func newMapStore() *mapStore {
	return &mapStore{m: make(map[storeKey]*experiment.Result), loads: make(map[storeKey]int)}
}

func (s *mapStore) Load(id string, fp uint64) (*experiment.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := storeKey{id, fp}
	s.loads[k]++
	res, ok := s.m[k]
	if !ok {
		return nil, false
	}
	return copyResult(res), true
}

func (s *mapStore) Save(id string, fp uint64, res *experiment.Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[storeKey{id, fp}] = copyResult(res)
	return nil
}

func (s *mapStore) loadCount(id string, fp uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loads[storeKey{id, fp}]
}

// countingStore wraps any ResultStore and counts the calls that reach
// it — the "did the cache hit avoid the disk read" instrument.
type countingStore struct {
	inner ResultStore
	mu    sync.Mutex
	loads int
	saves int
}

func (s *countingStore) Load(id string, fp uint64) (*experiment.Result, bool) {
	s.mu.Lock()
	s.loads++
	s.mu.Unlock()
	return s.inner.Load(id, fp)
}

func (s *countingStore) Save(id string, fp uint64, res *experiment.Result) error {
	s.mu.Lock()
	s.saves++
	s.mu.Unlock()
	return s.inner.Save(id, fp, res)
}

func (s *countingStore) loadCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loads
}

// fakeResult builds a result whose resultBytes is exactly
// 128 + 8*miLen, so eviction arithmetic in the tests is explicit.
func fakeResult(miLen int) *experiment.Result {
	mi := make([]float64, miLen)
	for i := range mi {
		mi[i] = float64(i) + 0.5
	}
	return &experiment.Result{MI: mi}
}

// TestCacheStoreLRUEvictionOrder: the least-recently-USED entry goes
// first — a Load refreshes recency, so insertion order alone must not
// decide eviction.
func TestCacheStoreLRUEvictionOrder(t *testing.T) {
	inner := newMapStore()
	// Three entries of 256 accounted bytes fit; a fourth evicts.
	c := NewCacheStore(inner, 3*(128+8*16))
	for _, id := range []string{"a", "b", "c"} {
		if err := c.Save(id, 1, fakeResult(16)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Load("a", 1); !ok { // refresh "a": "b" is now LRU
		t.Fatal("warm load of a missed")
	}
	if err := c.Save("d", 1, fakeResult(16)); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("cache holds %d entries, want 3", c.Len())
	}
	// The refreshed "a" and the newer "c"/"d" are still cached (probed
	// first: a miss would repopulate and shuffle the LRU under us)...
	for _, id := range []string{"a", "c", "d"} {
		before := inner.loadCount(id, 1)
		if _, ok := c.Load(id, 1); !ok {
			t.Fatalf("%s lost", id)
		}
		if inner.loadCount(id, 1) != before {
			t.Fatalf("%s fell through to inner; expected a cache hit", id)
		}
	}
	// ...and "b" — least recently used at eviction time — is the one
	// that falls through to the inner store.
	before := inner.loadCount("b", 1)
	if _, ok := c.Load("b", 1); !ok {
		t.Fatal("b lost entirely")
	}
	if inner.loadCount("b", 1) != before+1 {
		t.Fatal("b was served from cache; expected it evicted as LRU")
	}
}

// TestCacheStoreByteBoundRespected: the accounted payload never exceeds
// the configured bound, whatever the insert pattern.
func TestCacheStoreByteBoundRespected(t *testing.T) {
	inner := newMapStore()
	const max = 2048
	c := NewCacheStore(inner, max)
	for i := 0; i < 64; i++ {
		if err := c.Save(fmt.Sprintf("run-%d", i), uint64(i), fakeResult(8+i)); err != nil {
			t.Fatal(err)
		}
		if c.Bytes() > max {
			t.Fatalf("after insert %d: %d cached bytes exceeds bound %d", i, c.Bytes(), max)
		}
	}
	if c.Len() == 0 {
		t.Fatal("bound respected but nothing cached")
	}
}

// TestCacheStoreOversizedEntryPassesThrough: an entry bigger than the
// whole cache is stored durably but never cached.
func TestCacheStoreOversizedEntryPassesThrough(t *testing.T) {
	inner := newMapStore()
	c := NewCacheStore(inner, 256)
	if err := c.Save("huge", 1, fakeResult(1024)); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("oversized entry cached (%d entries, %d bytes)", c.Len(), c.Bytes())
	}
	if _, ok := c.Load("huge", 1); !ok {
		t.Fatal("oversized entry not readable through the cache")
	}
	if inner.loadCount("huge", 1) != 1 {
		t.Fatal("oversized load did not reach the inner store")
	}
}

// TestCacheStoreHitAvoidsDiskRead is the satellite's headline: a warm
// cache serves repeat loads without touching the directory store at all.
func TestCacheStoreHitAvoidsDiskRead(t *testing.T) {
	disk := &countingStore{inner: DirStore{Dir: t.TempDir()}}
	c := NewCacheStore(disk, 1<<20)
	if err := c.Save("run", 7, fakeResult(32)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, ok := c.Load("run", 7); !ok {
			t.Fatal("warm load missed")
		}
	}
	if n := disk.loadCount(); n != 0 {
		t.Fatalf("%d loads reached disk; the save should have warmed the cache", n)
	}
	// A cold cache over the same directory reads disk exactly once.
	cold := NewCacheStore(disk, 1<<20)
	for i := 0; i < 5; i++ {
		if _, ok := cold.Load("run", 7); !ok {
			t.Fatal("cold load missed")
		}
	}
	if n := disk.loadCount(); n != 1 {
		t.Fatalf("%d loads reached disk, want exactly 1 (first miss only)", n)
	}
}

// TestCacheStoreLoadsArePrivateCopies: mutating a loaded result must not
// corrupt later loads — the gob-decode isolation contract, kept by the
// in-memory fast path.
func TestCacheStoreLoadsArePrivateCopies(t *testing.T) {
	c := NewCacheStore(newMapStore(), 1<<20)
	if err := c.Save("run", 1, fakeResult(4)); err != nil {
		t.Fatal(err)
	}
	first, _ := c.Load("run", 1)
	first.MI[0] = math.Inf(1)
	second, _ := c.Load("run", 1)
	if math.IsInf(second.MI[0], 1) {
		t.Fatal("cache returned a shared slice; loads must be private copies")
	}
}

// TestCacheFrontedSweepBitIdentical: fronting the checkpoint store with
// a cache must be invisible in the results — fresh compute, warm resume
// and cold resume all bit-identical to the bare store.
func TestCacheFrontedSweepBitIdentical(t *testing.T) {
	specs := experiment.Fig8Specs(tinyScale(), 2, 17)
	bare := &Runner{Concurrency: 2, Tokens: workpool.NewTokens(2), Store: DirStore{Dir: t.TempDir()}}
	want, err := bare.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	disk := &countingStore{inner: DirStore{Dir: t.TempDir()}}
	cache := NewCacheStore(disk, 8<<20)
	fronted := &Runner{Concurrency: 2, Tokens: workpool.NewTokens(2), Store: cache}
	got, err := fronted.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "cache-fronted fresh", want, got)
	// Warm resume: served entirely from memory, still bit-identical.
	loadsBefore := disk.loadCount()
	again, err := fronted.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "cache-fronted resume", want, again)
	if disk.loadCount() != loadsBefore {
		t.Fatal("warm resume read the directory store; cache should have served every run")
	}
}

// TestRunErrorSurvivesConcurrentCancel pins the error-masking fix: a
// run that fails for its own reason while a cancellation is in flight
// must surface that reason (joined with the context's error), while a
// pure cancellation still returns the context's error verbatim.
func TestRunErrorSurvivesConcurrentCancel(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	realErr := errors.New("estimator exploded")

	err := runError(cancelled, "run-1", realErr)
	if !errors.Is(err, realErr) {
		t.Fatalf("real error lost under concurrent cancel: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("context error not joined: %v", err)
	}
	if !strings.Contains(err.Error(), "run-1") {
		t.Fatalf("run ID missing from %v", err)
	}

	if err := runError(cancelled, "run-1", context.Canceled); err != context.Canceled {
		t.Fatalf("pure cancellation = %v, want context.Canceled verbatim", err)
	}
	// A wrapped cancellation (the pipeline annotated ctx.Err) is still a
	// pure cancellation.
	if err := runError(cancelled, "run-1", fmt.Errorf("stage: %w", context.Canceled)); err != context.Canceled {
		t.Fatalf("wrapped cancellation = %v, want context.Canceled verbatim", err)
	}

	live := context.Background()
	err = runError(live, "run-2", realErr)
	if !errors.Is(err, realErr) || errors.Is(err, context.Canceled) {
		t.Fatalf("uncancelled failure = %v", err)
	}
}

// BenchmarkSweepCacheStoreResume measures the repeat-load path the cache
// exists for: resuming a fully checkpointed sweep through a bare
// DirStore (gob decode per run, every time) vs through a warm
// CacheStore (in-memory copies, no disk).
func BenchmarkSweepCacheStoreResume(b *testing.B) {
	specs := experiment.Fig8Specs(tinyScale(), 2, 1234)
	dir := b.TempDir()
	seed := &Runner{Store: DirStore{Dir: dir}}
	if _, err := seed.Sweep(context.Background(), specs); err != nil {
		b.Fatal(err)
	}
	b.Run("dirstore", func(b *testing.B) {
		r := &Runner{Store: DirStore{Dir: dir}}
		for i := 0; i < b.N; i++ {
			if _, err := r.Sweep(context.Background(), specs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cachestore", func(b *testing.B) {
		r := &Runner{Store: NewCacheStore(DirStore{Dir: dir}, 8<<20)}
		if _, err := r.Sweep(context.Background(), specs); err != nil {
			b.Fatal(err) // warm the cache outside the timed loop
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Sweep(context.Background(), specs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
