package experiment

import (
	"context"
	"math"
	"testing"
)

// TestSweepDriversRejectDegenerateRepeats is the regression test for the
// silent-NaN bug: Scale.Repeats ≤ 0 used to make the sweep drivers skip
// every run and return NaN/empty curves; now it is a validation error.
func TestSweepDriversRejectDegenerateRepeats(t *testing.T) {
	for _, repeats := range []int{0, -3} {
		sc := TestScale()
		sc.Repeats = repeats
		if _, err := Fig8TypeCountSweep(context.Background(), nil, sc, 3, 1); err == nil {
			t.Fatalf("Fig8TypeCountSweep accepted Repeats=%d", repeats)
		}
		if _, err := Fig9CutoffSweep(context.Background(), nil, sc, 1); err == nil {
			t.Fatalf("Fig9CutoffSweep accepted Repeats=%d", repeats)
		}
		if _, err := Fig10TypesVsCutoff(context.Background(), nil, sc, 1); err == nil {
			t.Fatalf("Fig10TypesVsCutoff accepted Repeats=%d", repeats)
		}
		if _, _, err := AverageMI(context.Background(), nil, sc, 1, nil); err == nil {
			t.Fatalf("AverageMI accepted Repeats=%d", repeats)
		}
	}
	if _, err := EstimatorComparison(context.Background(), nil, 3, 50, 0, 0.5, 4, 1); err == nil {
		t.Fatal("EstimatorComparison accepted reps=0")
	}
	if _, err := Fig8TypeCountSweep(context.Background(), nil, TestScale(), 0, 1); err == nil {
		t.Fatal("Fig8TypeCountSweep accepted maxTypes=0")
	}
}

func TestMeanMICurveMatchesSerialArithmetic(t *testing.T) {
	a := &Result{Times: []int{0, 5}, MI: []float64{1, 3}}
	b := &Result{Times: []int{0, 5}, MI: []float64{2, 5}}
	times, mi, err := MeanMICurve([]*Result{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if times[1] != 5 || mi[0] != 1.5 || mi[1] != 4 {
		t.Fatalf("mean curve = %v %v", times, mi)
	}
	if _, _, err := MeanMICurve(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	short := &Result{Times: []int{0}, MI: []float64{1}}
	if _, _, err := MeanMICurve([]*Result{a, short}); err == nil {
		t.Fatal("mismatched grids accepted")
	}
}

func TestMeanDeltaI(t *testing.T) {
	rs := []*Result{
		{MI: []float64{0, 2}},
		{MI: []float64{1, 5}},
	}
	if got := MeanDeltaI(rs); got != 3 {
		t.Fatalf("mean deltaI = %v, want 3", got)
	}
	if got := MeanDeltaI(nil); !math.IsNaN(got) && got != 0 {
		// mathx.Mean of an empty slice defines the edge; just ensure no
		// panic.
		_ = got
	}
}
