package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/forces"
	"repro/internal/vec"
)

func streamTestConfig(m, steps, every, workers int) EnsembleConfig {
	return EnsembleConfig{
		Sim: Config{
			N:     8,
			Types: TypesRoundRobin(8, 2),
			Force: forces.MustF1(forces.ConstantMatrix(2, 1),
				forces.MustMatrix([][]float64{{1.5, 3.0}, {3.0, 2.0}})),
			Cutoff: 6,
		},
		M:           m,
		Steps:       steps,
		RecordEvery: every,
		Seed:        11,
		Workers:     workers,
	}
}

func TestRecordedSteps(t *testing.T) {
	cases := []struct {
		steps, every int
		want         []int
	}{
		{30, 10, []int{0, 10, 20, 30}},
		{30, 15, []int{0, 15, 30}},
		{7, 3, []int{0, 3, 6, 7}}, // final step recorded additionally
		{5, 0, []int{0, 1, 2, 3, 4, 5}},
		{4, 100, []int{0, 4}},
		{1, 1, []int{0, 1}},
	}
	for _, c := range cases {
		if got := RecordedSteps(c.steps, c.every); !reflect.DeepEqual(got, c.want) {
			t.Errorf("RecordedSteps(%d, %d) = %v, want %v", c.steps, c.every, got, c.want)
		}
	}
}

// collectFrames streams the ensemble and snapshots every frame into a
// deterministic [sample][index] layout, so runs with different worker
// counts can be compared.
func collectFrames(t *testing.T, ec EnsembleConfig) ([][][]vec.Vec2, *StreamResult) {
	t.Helper()
	times := RecordedSteps(ec.Steps, ec.RecordEvery)
	frames := make([][][]vec.Vec2, ec.M)
	for s := range frames {
		frames[s] = make([][]vec.Vec2, len(times))
	}
	var mu sync.Mutex
	res, err := StreamEnsembleCtx(context.Background(), ec, func(f Frame) error {
		mu.Lock()
		defer mu.Unlock()
		if frames[f.Sample][f.Index] != nil {
			return fmt.Errorf("frame (%d, %d) delivered twice", f.Sample, f.Index)
		}
		frames[f.Sample][f.Index] = append([]vec.Vec2(nil), f.Pos...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return frames, res
}

func TestStreamEnsembleMatchesRunEnsemble(t *testing.T) {
	ec := streamTestConfig(6, 20, 7, 2)
	ens, err := RunEnsembleCtx(context.Background(), ec)
	if err != nil {
		t.Fatal(err)
	}
	frames, res := collectFrames(t, ec)
	if !reflect.DeepEqual(res.Times, ens.Times()) {
		t.Fatalf("times %v vs %v", res.Times, ens.Times())
	}
	for s := range frames {
		if !reflect.DeepEqual(frames[s], ens.Trajs[s].Frames) {
			t.Fatalf("sample %d frames differ between stream and batch", s)
		}
	}
}

func TestStreamEnsembleWorkerCountInvariance(t *testing.T) {
	ref, _ := collectFrames(t, streamTestConfig(7, 15, 5, 1))
	for _, workers := range []int{2, 3, 7, 16} {
		got, _ := collectFrames(t, streamTestConfig(7, 15, 5, workers))
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d changed the streamed frames", workers)
		}
	}
}

func TestStreamSamplesRangesComposeToFullStream(t *testing.T) {
	ec := streamTestConfig(5, 12, 4, 2)
	full, _ := collectFrames(t, ec)

	times := RecordedSteps(ec.Steps, ec.RecordEvery)
	split := make([][][]vec.Vec2, ec.M)
	for s := range split {
		split[s] = make([][]vec.Vec2, len(times))
	}
	var mu sync.Mutex
	visit := func(f Frame) error {
		mu.Lock()
		defer mu.Unlock()
		split[f.Sample][f.Index] = append([]vec.Vec2(nil), f.Pos...)
		return nil
	}
	for _, r := range [][2]int{{0, 1}, {1, 3}, {3, 3}, {3, 5}} {
		if _, err := StreamSamples(ec, r[0], r[1], visit); err != nil {
			t.Fatalf("range %v: %v", r, err)
		}
	}
	if !reflect.DeepEqual(split, full) {
		t.Fatal("ranged streaming differs from full streaming")
	}
}

func TestStreamSamplesRejectsBadRange(t *testing.T) {
	ec := streamTestConfig(3, 5, 5, 1)
	noop := func(Frame) error { return nil }
	for _, r := range [][2]int{{-1, 2}, {0, 4}, {2, 1}} {
		if _, err := StreamSamples(ec, r[0], r[1], noop); err == nil {
			t.Errorf("range %v accepted", r)
		}
	}
}

func TestStreamFrameMetadata(t *testing.T) {
	ec := streamTestConfig(1, 10, 4, 1)
	wantSteps := []int{0, 4, 8, 10}
	var gotSteps []int
	finals := 0
	_, err := StreamEnsembleCtx(context.Background(), ec, func(f Frame) error {
		if f.Sample != 0 {
			t.Errorf("sample %d in single-sample stream", f.Sample)
		}
		if f.Index != len(gotSteps) {
			t.Errorf("index %d out of order", f.Index)
		}
		gotSteps = append(gotSteps, f.Step)
		if f.Final {
			finals++
			if f.Step != ec.Steps {
				t.Errorf("final frame at step %d, want %d", f.Step, ec.Steps)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSteps, wantSteps) {
		t.Fatalf("steps %v, want %v", gotSteps, wantSteps)
	}
	if finals != 1 {
		t.Fatalf("%d final frames", finals)
	}
}

// TestStreamEnsembleVisitorErrorNoDeadlock is the regression test for the
// worker-pool deadlock of the pre-streaming RunEnsemble: a worker that hit
// an error returned, and once every worker had exited the producer blocked
// forever on an unbuffered send. The streaming runner's producer selects on
// a done channel instead, so an early error must drain promptly.
func TestStreamEnsembleVisitorErrorNoDeadlock(t *testing.T) {
	boom := errors.New("boom")
	// Many more samples than workers, and the failure on an early sample:
	// under the old dispatch this configuration deadlocked.
	ec := streamTestConfig(64, 3, 3, 2)
	donec := make(chan error, 1)
	go func() {
		_, err := StreamEnsembleCtx(context.Background(), ec, func(f Frame) error {
			if f.Sample == 1 {
				return boom
			}
			return nil
		})
		donec <- err
	}()
	select {
	case err := <-donec:
		if !errors.Is(err, boom) {
			t.Fatalf("error = %v, want %v", err, boom)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream deadlocked after visitor error")
	}
}

// TestStreamEnsembleAllWorkersFailNoDeadlock drives every worker into an
// error at once — the exact shape of the original bug, where all workers
// exiting left nobody to receive the producer's sends.
func TestStreamEnsembleAllWorkersFailNoDeadlock(t *testing.T) {
	ec := streamTestConfig(64, 3, 3, 4)
	donec := make(chan error, 1)
	go func() {
		_, err := StreamEnsembleCtx(context.Background(), ec, func(Frame) error { return errors.New("fail all") })
		donec <- err
	}()
	select {
	case err := <-donec:
		if err == nil {
			t.Fatal("no error reported")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream deadlocked when all workers failed")
	}
}

func TestCollectorReproducesRunEnsemble(t *testing.T) {
	ec := streamTestConfig(4, 9, 2, 3)
	ens, err := RunEnsembleCtx(context.Background(), ec)
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewCollector(ec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StreamEnsembleCtx(context.Background(), ec, col.Visit); err != nil {
		t.Fatal(err)
	}
	got := col.Ensemble()
	if !reflect.DeepEqual(got.Types, ens.Types) ||
		!reflect.DeepEqual(got.Equilibrated, ens.Equilibrated) {
		t.Fatal("collector metadata differs from RunEnsemble")
	}
	for s := range ens.Trajs {
		if !reflect.DeepEqual(got.Trajs[s].Times, ens.Trajs[s].Times) ||
			!reflect.DeepEqual(got.Trajs[s].Frames, ens.Trajs[s].Frames) {
			t.Fatalf("collector trajectory %d differs from RunEnsemble", s)
		}
	}
}
