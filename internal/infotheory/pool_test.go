package infotheory

import "testing"

// TestPoolPutDropsDatasetReferences pins the reference-retention rule:
// an engine returned to a pool must not keep its trees pointed at the
// last dataset's row slab (Engine.flatten can serve the dataset's own
// storage, so the flat tree aliases it too).
func TestPoolPutDropsDatasetReferences(t *testing.T) {
	ep := NewEnginePool()
	e := ep.Get(1)
	d := scalingDataset(200, 4, 1)
	_ = e.MultiInfoKSGVariant(d, DefaultBenchK, KSGPaper)
	_ = e.Entropies(d, DefaultBenchK)
	if e.joint.Len() == 0 || e.flat.Len() == 0 {
		t.Fatal("precondition: trees should reference the dataset after estimating")
	}
	ep.Put(e)
	if e.joint.Len() != 0 || e.flat.Len() != 0 {
		t.Fatal("Put left a tree referencing the dataset's rows")
	}
}

// TestPoolPutNilPoolStillReleases: the nil-pool convenience path drops
// the engine, but callers may hold other references to it — the
// dataset release must happen regardless.
func TestPoolPutNilPoolStillReleases(t *testing.T) {
	var ep *EnginePool
	e := NewEngine(1)
	d := scalingDataset(100, 4, 2)
	_ = e.MultiInfoKSGVariant(d, DefaultBenchK, KSGPaper)
	ep.Put(e)
	if e.joint.Len() != 0 {
		t.Fatal("nil-pool Put left the joint tree referencing the dataset")
	}
}

// TestPoolWatermarkDropsOversizedScratch is the retained-bytes
// regression test for the huge-m pinning bug: an engine whose grown
// scratch exceeds the watermark must come back from Put reset, while an
// engine under the watermark keeps its working set (that reuse is the
// point of the pool).
func TestPoolWatermarkDropsOversizedScratch(t *testing.T) {
	d := scalingDataset(500, 6, 3)

	over := NewEngine(1)
	_ = over.MultiInfoKSGVariant(d, DefaultBenchK, KSGPaper)
	grown := over.retainedBytes()
	if grown == 0 {
		t.Fatal("precondition: estimating should grow scratch")
	}

	defer func(old int) { poolWatermarkBytes = old }(poolWatermarkBytes)
	ep := NewEnginePool()

	// Under the watermark: scratch survives Put.
	poolWatermarkBytes = grown * 2
	ep.Put(over)
	if got := over.retainedBytes(); got == 0 {
		t.Fatal("under-watermark Put dropped the scratch the pool exists to recycle")
	}

	// Over the watermark: Put resets the engine to its zero state.
	under := NewEngine(3)
	_ = under.MultiInfoKSGVariant(d, DefaultBenchK, KSGPaper)
	_ = under.MultiInfoKSGApprox(d, DefaultBenchK, KSGPaper, ApproxOptions{Subsample: 50, Seed: 7})
	poolWatermarkBytes = under.retainedBytes() - 1
	ep.Put(under)
	if got := under.retainedBytes(); got != 0 {
		t.Fatalf("over-watermark Put retained %d bytes, want 0", got)
	}
	if under.Workers != 3 {
		t.Fatalf("watermark reset clobbered Workers: %d, want 3", under.Workers)
	}
}

// TestPoolRecycledEngineStillExact: pooling (with its release/reset
// paths) must never change an estimate.
func TestPoolRecycledEngineStillExact(t *testing.T) {
	defer func(old int) { poolWatermarkBytes = old }(poolWatermarkBytes)
	poolWatermarkBytes = 1 // force the reset path on every Put
	ep := NewEnginePool()
	d := scalingDataset(150, 4, 4)
	want := NewEngine(0).MultiInfoKSGVariant(d, DefaultBenchK, KSGPaper)
	for i := 0; i < 3; i++ {
		e := ep.Get(1)
		if got := e.MultiInfoKSGVariant(d, DefaultBenchK, KSGPaper); got != want {
			t.Fatalf("cycle %d: pooled engine returned %v, want %v", i, got, want)
		}
		ep.Put(e)
	}
}
