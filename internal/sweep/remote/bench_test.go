package remote

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/experiment"
	"repro/internal/sweep"
)

// BenchmarkDistributedSweep runs a Fig. 8-shaped grid through 1, 2 and 4
// in-process workers (real sockets, real protocol, no exec overhead) —
// the CI artifact that tracks multi-process scaling. On a multi-core box
// the wall clock should fall as workers are added until the budget is
// exhausted; on a single core the rows should stay flat, demonstrating
// the budget split prevents oversubscription.
func BenchmarkDistributedSweep(b *testing.B) {
	sc := experiment.Scale{M: 32, Steps: 60, RecordEvery: 20, Repeats: 2}
	for _, procs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("procs-%d", procs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				specs := experiment.Fig8Specs(sc, 3, 1234)
				co := &Coordinator{
					Procs: procs,
					Spawn: GoSpawner(WorkerOptions{}),
				}
				if _, err := co.Sweep(context.Background(), specs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistributedResume measures the coordinator's pre-dispatch
// store pass: a fully checkpointed sweep resolves without spawning a
// single worker, so resume cost is store reads, not processes.
func BenchmarkDistributedResume(b *testing.B) {
	sc := experiment.Scale{M: 32, Steps: 60, RecordEvery: 20, Repeats: 2}
	specs := experiment.Fig8Specs(sc, 3, 1234)
	dir := b.TempDir()
	seedRun := &Coordinator{Procs: 2, Spawn: GoSpawner(WorkerOptions{Dir: dir}), Store: sweep.DirStore{Dir: dir}}
	if _, err := seedRun.Sweep(context.Background(), specs); err != nil {
		b.Fatal(err)
	}
	b.Run("dirstore", func(b *testing.B) {
		co := &Coordinator{Procs: 2, Spawn: GoSpawner(WorkerOptions{Dir: dir}), Store: sweep.DirStore{Dir: dir}}
		for i := 0; i < b.N; i++ {
			if _, err := co.Sweep(context.Background(), specs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWire is the frame round-trip row: one send plus one recv over
// an in-memory connection, after the connection's first frame has
// carried the schema. wire-B/frame is what one frame puts on the wire,
// length prefix included.
func BenchmarkWire(b *testing.B) {
	for _, bc := range []struct {
		name string
		f    *frame
	}{{"progress", progressFrame()}, {"result", resultFrame()}} {
		b.Run(bc.name, func(b *testing.B) {
			var conn bytes.Buffer
			tx, rx := newWire(&conn), newWire(&conn)
			roundTrip := func() int {
				if err := tx.send(bc.f); err != nil {
					b.Fatal(err)
				}
				n := conn.Len()
				if _, err := rx.recv(); err != nil {
					b.Fatal(err)
				}
				return n
			}
			roundTrip()
			b.ReportAllocs()
			b.ResetTimer()
			wireBytes := 0
			for i := 0; i < b.N; i++ {
				wireBytes += roundTrip()
			}
			b.ReportMetric(float64(wireBytes)/float64(b.N), "wire-B/frame")
		})
	}
}
