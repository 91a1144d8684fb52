package main

import (
	"math"
	"math/rand"
	"time"
)

// The host's speed drifts by 20-40% over minutes, and CPU seconds move
// with wall seconds, so raw op times from runs minutes apart disagree by
// more than any bound a benchmark may declare. The VM exposes no cycle or
// instruction counters, so a timed run measures the host's speed itself:
// after every op it times calPasses passes of a fixed kernel of the
// benchmark's own code and scales that op's times by calRefSeconds over
// the median pass. They read as seconds on a host that runs a pass in
// calRefSeconds. A change to the program moves its ops and not the
// kernel, so it still shows in full.
//
// The kernel has two parts. A chain of dependent integer multiply-adds
// takes a fixed number of cycles per step, so it tracks the clock alone.
// A brute-force max-norm k-nearest-neighbour search over 128 points in 40
// dimensions, the distance KSG uses, is floating-point throughput on an
// L1-resident set, so it also feels other tenants contending for the
// core. Over a 7-minute series alternating fixed Fig. 4 and Fig. 11
// inputs, medians of 6 consecutive ops spread (coefficient of variation)
// 11.1% and 10.2% raw, 5.6% and 6.6% scaled by the chain alone, and 4.4%
// and 4.4% scaled by both parts. A 3-d nearest-neighbour search made the
// spread worse, 15.4% and 17.9%: its own time doubled in streaks that the
// program did not feel.
const (
	calRefSeconds = 0.025
	calPasses     = 4 // after every op
	calChain      = 8_000_000
	calPoints     = 128
	calDims       = 40
	calK          = 4
	calReps       = 10
)

// calibrator holds the kernel's points, made from a fixed seed so that
// every run and every commit times the same work.
type calibrator struct {
	pts  []float64
	sink float64
}

func newCalibrator() *calibrator {
	r := rand.New(rand.NewSource(1))
	c := &calibrator{pts: make([]float64, calPoints*calDims)}
	for i := range c.pts {
		c.pts[i] = r.NormFloat64()
	}
	return c
}

// pass runs the kernel once and returns its seconds.
func (c *calibrator) pass() float64 {
	start := time.Now()
	x := uint64(1)
	for i := 0; i < calChain; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	s := float64(x & 1)
	for r := 0; r < calReps; r++ {
		for i := 0; i < calPoints; i++ {
			s += c.kthDistance(i)
		}
	}
	c.sink += s
	return time.Since(start).Seconds()
}

// kthDistance is the max-norm distance from point i to its calK-th
// nearest neighbour.
func (c *calibrator) kthDistance(i int) float64 {
	var best [calK]float64
	for b := range best {
		best[b] = math.Inf(1)
	}
	p := c.pts[i*calDims : (i+1)*calDims]
	for j := 0; j < calPoints; j++ {
		if j == i {
			continue
		}
		q := c.pts[j*calDims : (j+1)*calDims]
		var d float64
		for k := range p {
			if v := math.Abs(p[k] - q[k]); v > d {
				d = v
			}
		}
		for b := calK - 1; b >= 0 && d < best[b]; b-- {
			if b < calK-1 {
				best[b+1] = best[b]
			}
			best[b] = d
		}
	}
	return best[calK-1]
}

// speedScale is the factor that turns seconds into reference seconds:
// calRefSeconds over the median of the calibration passes.
func speedScale(passes []float64) float64 { return calRefSeconds / median(passes) }
