package knn

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// crossoverQueries is how many queries each BenchmarkCrossover op runs:
// every row's first crossoverQueries samples at an even stride.
const crossoverQueries = 128

// crossoverCase is one index shape of BenchmarkCrossover: the rows to
// index and, per query, the query row and (for counts) its radius.
type crossoverCase struct {
	query     Query
	metric    Metric
	inclusive bool
	pts       []float64
	n, dim    int
	blocks    []Block
	qs        []int     // query rows
	radii     []float64 // count radius of each query
}

// pipelineRows draws n samples of nv observer variables of w ≤ 2
// coordinates sharing a latent component — for w = 2 the scalingDataset
// recipe of infotheory's BenchmarkKSGScaling, one pipeline time step —
// as flat rows.
func pipelineRows(n, nv, w int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	rows := make([]float64, 0, n*nv*w)
	for s := 0; s < n; s++ {
		latent := [2]float64{r.NormFloat64(), r.NormFloat64()}
		for v := 0; v < nv; v++ {
			for c := 0; c < w; c++ {
				rows = append(rows, latent[c]+0.7*r.NormFloat64())
			}
		}
	}
	return rows
}

// columns copies the given coordinates of every row.
func columns(rows []float64, n, rowLen int, cols ...int) []float64 {
	out := make([]float64, 0, n*len(cols))
	for s := 0; s < n; s++ {
		for _, c := range cols {
			out = append(out, rows[s*rowLen+c])
		}
	}
	return out
}

func span(off, w int) []int {
	cols := make([]int, w)
	for i := range cols {
		cols[i] = off + i
	}
	return cols
}

func uniformBlocks(dim, w int) []Block {
	var bl []Block
	for off := 0; off < dim; off += w {
		bl = append(bl, Block{off, w})
	}
	return bl
}

// cmiPool draws n rows of a Frenzel–Pompe joint as infodynamics builds
// them from 2-D positions: transfer entropy's [future|source|past]
// (dim 6), or active storage's [future|past|0], conditioned on a
// constant scalar (dim 5).
func cmiPool(n, dim int, seed int64) []float64 {
	vars := pipelineRows(n, dim/2, 2, seed)
	if dim == 6 {
		return vars
	}
	rows := make([]float64, 0, n*dim)
	for s := 0; s < n; s++ {
		rows = append(rows, vars[s*4:(s+1)*4]...)
		rows = append(rows, 0)
	}
	return rows
}

func (c *crossoverCase) pickQueries() {
	for i := 0; i < crossoverQueries && i < c.n; i++ {
		c.qs = append(c.qs, i*c.n/min(c.n, crossoverQueries))
	}
}

// newKNNCase builds a kNN index shape at k = 4, as in the pipelines:
//
//   - "row": one block spanning dim equicorrelated scalars, the KL
//     entropy's joint index;
//   - "1", "2": KSG joints of 1-D or 2-D observer variables, one block
//     each;
//   - "chebyshev": the Frenzel–Pompe joint of cmiPool (dim 5 or 6).
func newKNNCase(shape string, dim, n int) *crossoverCase {
	c := &crossoverCase{query: Nearest, metric: MaxEuclidean2, n: n, dim: dim}
	seed := int64(n * dim)
	switch shape {
	case "row":
		c.pts = pipelineRows(n, dim, 1, seed)
	case "1":
		c.pts = pipelineRows(n, dim, 1, seed)
		c.blocks = uniformBlocks(dim, 1)
	case "2":
		c.pts = pipelineRows(n, dim/2, 2, seed)
		c.blocks = uniformBlocks(dim, 2)
	case "chebyshev":
		c.metric = Chebyshev
		c.pts = cmiPool(n, dim, seed)
	}
	c.pickQueries()
	return c
}

// newCountCase builds a KSG marginal count (MaxEuclidean2, one block)
// over one dim-wide variable group, the engine's marginal index, at the
// KSG-2 radius: the group's largest distance among the k = 4 nearest
// joint neighbours, counted inclusively. The joint holds eight groups as
// in BenchmarkKSGScaling while they are single variables (dim ≤ 2), and
// two groups of wider ones, since the share of points inside, which
// decides the count crossover, follows from real radii only.
func newCountCase(dim, n int) *crossoverCase {
	const k = 4
	w := min(dim, 2)
	groups := 8
	if dim > w {
		groups = 2
	}
	jointLen := groups * dim
	joint := pipelineRows(n, jointLen/w, w, int64(n*dim))
	c := &crossoverCase{query: Count, metric: MaxEuclidean2, inclusive: true, n: n, dim: dim}
	c.pts = columns(joint, n, jointLen, span(0, dim)...)
	c.pickQueries()
	var jt Tree
	jt.rebuild(joint, n, jointLen, MaxEuclidean2, uniformBlocks(jointLen, dim), false, true)
	var nbs []Neighbor
	for _, s := range c.qs {
		nbs = jt.KNearest(joint[s*jointLen:(s+1)*jointLen], k, int32(s), nbs)
		var rad float64
		for _, nb := range nbs {
			if d := sqSum(c.pts[s*dim:(s+1)*dim], c.pts[int(nb.Index)*dim:(int(nb.Index)+1)*dim]); d > rad {
				rad = d
			}
		}
		c.radii = append(c.radii, rad)
	}
	return c
}

// newChebyshevCountCase builds a Frenzel–Pompe subspace count, counted
// strictly within the Chebyshev distance of the k = 4-th joint
// neighbour, in the subspaces infodynamics counts: active storage's
// constant [0] (dim 1) and [future|0] (dim 3), transfer entropy's
// [past] (dim 2) and [future|past] (dim 4).
func newChebyshevCountCase(dim, n int) *crossoverCase {
	const k = 4
	cols := map[int][]int{1: {4}, 2: {4, 5}, 3: {0, 1, 4}, 4: {0, 1, 4, 5}}[dim]
	jointLen := 6 - dim%2 // odd subspaces come from active storage
	joint := cmiPool(n, jointLen, int64(n*dim))
	c := &crossoverCase{query: Count, metric: Chebyshev, n: n, dim: dim}
	c.pts = columns(joint, n, jointLen, cols...)
	c.pickQueries()
	var jt Tree
	jt.rebuild(joint, n, jointLen, Chebyshev, nil, false, true)
	var nbs []Neighbor
	for _, s := range c.qs {
		nbs = jt.KNearest(joint[s*jointLen:(s+1)*jointLen], k, int32(s), nbs)
		c.radii = append(c.radii, nbs[k-1].Dist)
	}
	return c
}

// bench times one path on the case: each op rebuilds the index and runs
// the queries. The ns/query metric charges each query its share of one
// rebuild amortised over n queries — the cost of an estimator index,
// which serves one query per indexed sample — and is the figure the
// useTree thresholds compare. tree = 1 marks rows served by tree nodes.
func (c *crossoverCase) bench(b *testing.B, path string) {
	var tr Tree
	build := func() {
		switch path {
		case "tree":
			tr.rebuild(c.pts, c.n, c.dim, c.metric, c.blocks, true, true)
		case "scan", "avx2":
			tr.rebuild(c.pts, c.n, c.dim, c.metric, c.blocks, false, true)
		case "go":
			tr.rebuild(c.pts, c.n, c.dim, c.metric, c.blocks, false, false)
		default:
			tr.Rebuild(c.pts, c.n, c.dim, c.metric, c.blocks, c.query)
		}
	}
	build()
	nbs := make([]Neighbor, 0, 4)
	var building, querying time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		build()
		built := time.Now()
		for j, s := range c.qs {
			q := c.pts[s*c.dim : (s+1)*c.dim]
			if c.query == Nearest {
				nbs = tr.KNearest(q, 4, int32(s), nbs)
			} else {
				crossoverSink += tr.CountWithin(q, c.radii[j], c.inclusive, int32(s))
			}
		}
		building += built.Sub(start)
		querying += time.Since(built)
	}
	perQuery := float64(querying.Nanoseconds()) / float64(b.N*len(c.qs))
	perBuild := float64(building.Nanoseconds()) / float64(b.N)
	b.ReportMetric(perQuery+perBuild/float64(c.n), "ns/query")
	tree := 0.0
	if tr.TreeBacked() {
		tree = 1
	}
	b.ReportMetric(tree, "tree")
}

var crossoverSink int

// crossoverShapes lists every index family the rule distinguishes, with
// the dimensions measured for it: each dimension of the family the
// repository's estimators build, and every dimension in between.
var crossoverShapes = []struct {
	query Query
	shape string // block width, "row" for one block, or "chebyshev"
	dims  []int
}{
	{Nearest, "row", []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}},
	{Nearest, "1", []int{2, 3, 4, 5, 6}},
	{Nearest, "2", []int{4, 6, 8, 10, 12, 14, 16}},
	{Nearest, "chebyshev", []int{5, 6}},
	{Count, "row", []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}},
	{Count, "chebyshev", []int{1, 2, 3, 4}},
}

// BenchmarkCrossover measures the tree-or-scan crossover that useTree's
// table cites, on the forced tree, the forced scan and the rule's
// choice, for every shape in crossoverShapes at crossoverSizes, from a
// quick-scale pipeline to the CI guard's m = 50000. Rows are named
// kind/shape/dim/n/path, where shape is the block width ("row" for one
// block spanning the row) or "chebyshev". Compare the ns/query column
// across the three rows of a shape; the rule row should match the faster
// forced path. CI uploads the rows as the knn-crossover-bench artifact.
func BenchmarkCrossover(b *testing.B) {
	for _, fam := range crossoverShapes {
		kind := map[Query]string{Count: "count", Nearest: "knn"}[fam.query]
		for _, dim := range fam.dims {
			for _, n := range crossoverSizes {
				var c *crossoverCase
				switch {
				case fam.query == Nearest:
					c = newKNNCase(fam.shape, dim, n)
				case fam.shape == "chebyshev":
					c = newChebyshevCountCase(dim, n)
				default:
					c = newCountCase(dim, n)
				}
				for _, path := range []string{"tree", "scan", "rule"} {
					b.Run(fmt.Sprintf("%s/%s/dim=%d/n=%d/%s", kind, fam.shape, dim, n, path), func(b *testing.B) { c.bench(b, path) })
				}
			}
		}
	}
}
