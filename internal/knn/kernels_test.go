package knn

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// scanInput is one kernel check decoded from fuzz bytes: rows and a
// query, and either a one-block count at radius r or a 2-wide-block
// screen from row from at bound r.
type scanInput struct {
	pts    []float64 // n rows, then a copy of q that no kernel may read
	q      []float64
	n, dim int
	pairs  bool
	from   int
	r      float64
}

// specials are the coordinates and radii of the one-byte encoding:
// small integers, so that exact ties and duplicate rows are common, and
// every special value the kernels must order as the Go loops do.
var specials = []float64{
	0, 1, 2, 3, -1, -2, 0.5, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, 1e300, -1e300, math.MaxFloat64, 1e-300, 1e154,
}

// fuzzBytes hands out the bytes after the header, cycling, and zeros
// when there are none.
type fuzzBytes struct {
	b []byte
	i int
}

func (f *fuzzBytes) next() byte {
	if len(f.b) == 0 {
		return 0
	}
	c := f.b[f.i%len(f.b)]
	f.i++
	return c
}

func (f *fuzzBytes) raw() float64 {
	var w [8]byte
	for i := range w {
		w[i] = f.next()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
}

// decodeScanInput reads data as:
//
//   - byte 0: the shape, a one-block count of 1–16 coordinates (2 is
//     the 2-D count) or a 2-wide-block screen of 2–100;
//   - byte 1: n, 0–67, so that every tail length occurs; byte 2: from,
//     0–n;
//   - byte 3: the radius or bound, from 8 raw bytes, or equal to a
//     block sum of the query and a row (or the float on either side of
//     it), so that exact ties occur;
//   - byte 4: the coordinate encoding, 8 raw bytes a value (NaN, ±Inf,
//     −0 and subnormals occur) or one byte indexing specials;
//   - the rest, cycled: the query, then the rows.
func decodeScanInput(data []byte) scanInput {
	var head [5]byte
	copy(head[:], data)
	body := &fuzzBytes{b: data[min(len(data), len(head)):]}
	var in scanInput
	shape := int(head[0]) % 66
	if shape < 16 {
		in.dim = shape + 1
	} else {
		in.pairs = true
		in.dim = 2 * (shape - 15)
	}
	in.n = int(head[1]) % 68
	in.from = int(head[2]) % (in.n + 1)
	value := body.raw
	if head[4]&1 == 1 {
		value = func() float64 { return specials[int(body.next())%len(specials)] }
	}
	in.q = make([]float64, in.dim)
	for i := range in.q {
		in.q[i] = value()
	}
	in.pts = make([]float64, 0, (in.n+1)*in.dim)
	for i := 0; i < in.n*in.dim; i++ {
		in.pts = append(in.pts, value())
	}
	in.pts = append(in.pts, in.q...)
	if head[3]%4 == 0 || in.n == 0 {
		in.r = body.raw()
		return in
	}
	// A block sum as the kernels compute it: sqSum's value, which the
	// 2-D count's d0*d0 + d1*d1 equals, since +0 + x is x for every
	// square x.
	row := in.pts[int(body.next())%in.n*in.dim:][:in.dim]
	off, width := 0, in.dim
	if in.pairs {
		off, width = 2*(int(body.next())%(in.dim/2)), 2
	}
	in.r = sqSum(in.q[off:off+width], row[off:off+width])
	switch head[3] % 4 {
	case 2:
		in.r = math.Nextafter(in.r, math.Inf(1))
	case 3:
		in.r = math.Nextafter(in.r, math.Inf(-1))
	}
	return in
}

// FuzzScanKernels checks each AVX2 scan kernel against the Go loop it
// stands in for: the same count from scanCount, and the same rows, one
// after another, from nextWithin. The index covers n rows of a slab
// that holds a copy of the query after them, which every kernel would
// count or pass if it read beyond its rows.
func FuzzScanKernels(f *testing.F) {
	if !hasAVX2 {
		f.Skip("this host has no AVX2: there are no kernels to check against the Go loops")
	}
	f.Add([]byte{1, 9, 0, 1, 1, 0, 1, 2, 3, 8, 4, 9, 5, 10, 6, 11, 7, 12})
	f.Add([]byte{7, 67, 0, 2, 1, 3, 1, 0, 2, 8, 9, 10, 4, 5, 6, 7, 17, 13})
	f.Add([]byte{15, 33, 5, 3, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Add([]byte{19, 13, 2, 1, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{65, 21, 20, 1, 1, 3, 2, 1, 0, 1, 2, 3, 8, 0, 1})
	f.Add([]byte{48, 5, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeScanInput(data)
		var blocks []Block
		if in.pairs {
			blocks = uniformBlocks(in.dim, 2)
		}
		var goLoops, avx2 Tree
		goLoops.rebuild(in.pts, in.n, in.dim, MaxEuclidean2, blocks, false, false)
		avx2.rebuild(in.pts, in.n, in.dim, MaxEuclidean2, blocks, false, true)
		if !avx2.kernels || goLoops.kernels {
			t.Fatal("the two indexes do not run the two scans")
		}
		if !in.pairs {
			if got, want := avx2.scanCount(in.q, in.r), goLoops.scanCount(in.q, in.r); got != want {
				t.Fatalf("count, dim %d, n %d, r %v: kernel %d, Go loop %d", in.dim, in.n, in.r, got, want)
			}
			return
		}
		for j := in.from; ; j++ {
			got, want := avx2.nextWithin(in.q, j, in.r), goLoops.nextWithin(in.q, j, in.r)
			if got != want {
				t.Fatalf("screen, dim %d, n %d, from %d, bound %v: kernel row %d, Go loop row %d", in.dim, in.n, j, in.r, got, want)
			}
			if want == in.n {
				return
			}
			j = want
		}
	})
}

// BenchmarkScanKernels times the scan on the AVX2 kernels and on the Go
// loops side by side, at the paper pipelines' index shapes at m = 600:
// the 2-D and 8-D KSG marginal counts, and k = 4 kNN queries over KSG
// joints of 4, 20 and 50 2-D observer variables, whose screens are 8,
// 40 and 100 coordinates wide. Rows are named as BenchmarkCrossover's,
// with the path avx2 or go; compare the ns/query column of a pair. A
// host without AVX2 skips the avx2 rows.
func BenchmarkScanKernels(b *testing.B) {
	const m = 600
	cases := []*crossoverCase{
		newCountCase(2, m),
		newCountCase(8, m),
		newKNNCase("2", 8, m),
		newKNNCase("2", 40, m),
		newKNNCase("2", 100, m),
	}
	for _, c := range cases {
		name := "count/row"
		if c.query == Nearest {
			name = "knn/2"
		}
		for _, path := range []string{"avx2", "go"} {
			b.Run(fmt.Sprintf("%s/dim=%d/n=%d/%s", name, c.dim, c.n, path), func(b *testing.B) {
				if path == "avx2" && !hasAVX2 {
					b.Skip("this host has no AVX2")
				}
				b.ReportAllocs()
				c.bench(b, path)
			})
		}
	}
}
