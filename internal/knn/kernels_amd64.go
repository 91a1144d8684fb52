package knn

// hasAVX2 reports whether this CPU and OS run the AVX2 scan kernels
// (kernels_amd64.s): the CPU has AVX, AVX2 and POPCNT, and the OS has
// enabled XSAVE (OSXSAVE) with the SSE and AVX state in XCR0, so the
// YMM registers survive a context switch.
var hasAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const popcnt, osxsave, avx = 1 << 23, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(popcnt|osxsave|avx) != popcnt|osxsave|avx {
		return false
	}
	const sseAndAVXState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&sseAndAVXState != sseAndAVXState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// count2AVX2 is scanCount's 2-D loop four rows a step: the number of
// rows (x, y) among the first len(pts)/8*4 of pts whose sum
// (q0-x)² + (q1-y)² is not greater than r. The caller counts the other
// len(pts)/2 mod 4 rows.
//
//go:noescape
func count2AVX2(q0, q1 float64, pts []float64, r float64) int

// countRowsAVX2 is scanCount's one-block loop four rows a step: the
// number of rows of len(q) coordinates, among the first whole fours of
// pts, whose sqSum to q is not greater than r. The caller counts the
// rows left over.
//
//go:noescape
func countRowsAVX2(q, pts []float64, r float64) int

// nextPairsAVX2 is nextWithin's 2-wide-block screen: the index of the
// first row of len(q) coordinates in pts none of whose block sums over
// the first len(q)/2 coordinate pairs is greater than bound, or the
// number of rows if there is none.
//
//go:noescape
func nextPairsAVX2(q, pts []float64, bound float64) int

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
