package experiment

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/mathx"
)

// SweepSpec is one run of a sweep: a fully specified pipeline plus an
// identifier that is unique within the sweep. The ID — not the pipeline
// Name, which figure drivers reuse across series — keys checkpoint files
// and progress reports.
type SweepSpec struct {
	ID       string
	Pipeline Pipeline
}

// Sweeper executes batches of pipeline runs. The figure drivers that loop
// over many pipelines (Figs. 8–10) are written against this interface,
// so the same driver runs serially (SerialSweeper, the historical loops),
// concurrently with checkpointing (sweep.Runner) or across worker
// processes (remote.Coordinator). Implementations must return results in
// spec order and must not reorder, drop, or batch-merge runs — the
// reducers consume results positionally with serial-loop arithmetic.
// Cancelling the context stops the sweep within one token-grant; a
// cancelled sweep returns the context's error and no partial result set.
type Sweeper interface {
	// Sweep executes every spec and returns the results in spec order.
	Sweep(ctx context.Context, specs []SweepSpec) ([]*Result, error)
}

// SerialSweeper runs every spec in order on the calling goroutine — the
// pre-sweep serial loops, kept as the equivalence reference that
// concurrent sweepers are tested against bit for bit.
type SerialSweeper struct{}

// Sweep runs the specs one after another.
func (SerialSweeper) Sweep(ctx context.Context, specs []SweepSpec) ([]*Result, error) {
	results := make([]*Result, len(specs))
	for i, spec := range specs {
		res, err := spec.Pipeline.RunCtx(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("sweep run %q: %w", spec.ID, err)
		}
		results[i] = res
	}
	return results, nil
}

// sweeperOrSerial resolves a nil Sweeper to the serial reference, so
// drivers accept nil for the historical behaviour.
func sweeperOrSerial(sw Sweeper) Sweeper {
	if sw == nil {
		return SerialSweeper{}
	}
	return sw
}

// validateRepeats rejects the degenerate Scale the sweep drivers used to
// accept silently: Repeats ≤ 0 made the serial loops skip every run and
// return NaN/empty curves.
func validateRepeats(sc Scale) error {
	if sc.Repeats <= 0 {
		return fmt.Errorf("experiment: Scale.Repeats must be positive, got %d", sc.Repeats)
	}
	return nil
}

// MeanMICurve reduces sweep results to the pointwise-mean MI curve over
// the shared recorded time grid, with exactly the serial-loop arithmetic
// (accumulate in result order, divide once) so that sweep outputs stay
// bit-identical to the historical per-series loops.
func MeanMICurve(results []*Result) (times []int, mi []float64, err error) {
	if len(results) == 0 {
		return nil, nil, errors.New("experiment: MeanMICurve needs at least one result")
	}
	times = results[0].Times
	acc := make([]float64, len(results[0].MI))
	for _, res := range results {
		if len(res.MI) != len(acc) {
			return nil, nil, fmt.Errorf("experiment: result %q has %d MI points, want %d (mismatched time grids)",
				res.Name, len(res.MI), len(acc))
		}
		for i, v := range res.MI {
			acc[i] += v
		}
	}
	for i := range acc {
		acc[i] /= float64(len(results))
	}
	return times, acc, nil
}

// MeanDeltaI reduces sweep results to the mean self-organisation increase
// ΔI = I(t_max) − I(t_0), in result order — the Fig. 8 reducer.
func MeanDeltaI(results []*Result) float64 {
	deltas := make([]float64, len(results))
	for i, res := range results {
		deltas[i] = res.DeltaI()
	}
	return mathx.Mean(deltas)
}
