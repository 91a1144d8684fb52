package sops

import (
	"math"
	"strings"

	"repro/internal/experiment"
	"repro/internal/plot"
)

// Rendering conveniences re-exported for example programs and downstream
// tools (stdlib-only ASCII/SVG output; see internal/plot).
type (
	// Chart is a multi-series ASCII line chart.
	Chart = plot.Chart
)

var (
	// SVGScatter renders a typed particle configuration as SVG.
	SVGScatter = plot.SVGScatter
	// FloatTimes converts recorded step indices to float64 x-values for
	// charts.
	FloatTimes = experiment.FloatTimes
)

// ASCIIScatter renders a typed particle configuration on a w×h character
// grid, digits being particle types — the terminal counterpart of the
// paper's configuration figures.
//
// The renderer is defensive about degenerate input, because it is the
// first thing a user points at a diverged simulation: nil or empty
// positions yield an empty grid, non-finite positions (NaN/±Inf — an
// unstable Dt produces them) are skipped, and grid indices are clamped so
// rounding at the bounding-box edge can never index out of range.
func ASCIIScatter(pos []Vec2, types []int, w, h int) string {
	if w < 8 {
		w = 8
	}
	if h < 4 {
		h = 4
	}
	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	// Bounding box over the finite points only; a single rogue Inf must
	// not collapse every finite point onto one cell (and NaN would poison
	// the spans entirely).
	min := Vec2{X: math.Inf(1), Y: math.Inf(1)}
	max := Vec2{X: math.Inf(-1), Y: math.Inf(-1)}
	finite := 0
	for _, p := range pos {
		if !isFinite2(p) {
			continue
		}
		finite++
		min.X = math.Min(min.X, p.X)
		min.Y = math.Min(min.Y, p.Y)
		max.X = math.Max(max.X, p.X)
		max.Y = math.Max(max.Y, p.Y)
	}
	if finite == 0 {
		return renderGrid(grid)
	}
	spanX := math.Max(max.X-min.X, 1e-9)
	spanY := math.Max(max.Y-min.Y, 1e-9)
	for i, p := range pos {
		if !isFinite2(p) {
			continue
		}
		c := clampIndex(int((p.X-min.X)/spanX*float64(w-1)), w)
		r := clampIndex(int((max.Y-p.Y)/spanY*float64(h-1)), h)
		ty := 0
		if types != nil && i < len(types) {
			ty = ((types[i] % 10) + 10) % 10
		}
		grid[r][c] = byte('0' + ty)
	}
	return renderGrid(grid)
}

func isFinite2(p Vec2) bool {
	return !math.IsNaN(p.X) && !math.IsNaN(p.Y) && !math.IsInf(p.X, 0) && !math.IsInf(p.Y, 0)
}

func clampIndex(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

func renderGrid(grid [][]byte) string {
	var b strings.Builder
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	return b.String()
}
