package sweep

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/experiment"
	"repro/internal/workpool"
)

// BenchmarkSweepRunner measures the wall clock of a Fig. 8-shaped grid
// (8 full pipelines at TestScale) through the serial reference and
// through Runners at growing concurrency, all under a GOMAXPROCS token
// budget. On a single-core box the rows tie — the budget model's win is
// that W cores run ≈W× faster without oversubscription; the CI artifact
// (sweep-bench) tracks that trajectory. Results are bit-identical across
// rows by the sweep equivalence suite.
func BenchmarkSweepRunner(b *testing.B) {
	sc := experiment.TestScale()
	specs := experiment.Fig8Specs(sc, 4, 2012)

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (experiment.SerialSweeper{}).Sweep(context.Background(), specs); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, conc := range []int{2, 4} {
		b.Run(fmt.Sprintf("runner-conc%d", conc), func(b *testing.B) {
			r := &Runner{Concurrency: conc, Tokens: workpool.NewTokens(0)}
			for i := 0; i < b.N; i++ {
				if _, err := r.Sweep(context.Background(), specs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepCheckpointResume measures the resume path: a sweep whose
// runs are all on disk costs only the gob decodes.
func BenchmarkSweepCheckpointResume(b *testing.B) {
	sc := experiment.TestScale()
	specs := experiment.Fig8Specs(sc, 4, 2012)
	r := &Runner{Store: DirStore{Dir: b.TempDir()}}
	if _, err := r.Sweep(context.Background(), specs); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Sweep(context.Background(), specs); err != nil {
			b.Fatal(err)
		}
	}
}
