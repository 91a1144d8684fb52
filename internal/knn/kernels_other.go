//go:build !amd64

package knn

// hasAVX2 is false off amd64: every scan runs its Go loop, and the
// kernels below are never called.
const hasAVX2 = false

func count2AVX2(q0, q1 float64, pts []float64, r float64) int { panic("knn: AVX2 kernel off amd64") }

func countRowsAVX2(q, pts []float64, r float64) int { panic("knn: AVX2 kernel off amd64") }

func nextPairsAVX2(q, pts []float64, bound float64) int { panic("knn: AVX2 kernel off amd64") }
