package plot

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/vec"
)

func TestChartRenderContainsMarksAndLegend(t *testing.T) {
	c := &Chart{Title: "demo", XLabel: "t", YLabel: "bits"}
	c.Add("alpha", []float64{0, 1, 2}, []float64{0, 1, 4})
	c.Add("beta", []float64{0, 1, 2}, []float64{4, 1, 0})
	out := c.Render(40, 10)
	for _, want := range []string{"demo", "alpha", "beta", "*", "o", "x: t", "y: bits"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered chart missing %q:\n%s", want, out)
		}
	}
}

func TestChartHandlesNonFinite(t *testing.T) {
	c := &Chart{}
	c.Add("s", []float64{0, 1, math.NaN(), 3}, []float64{1, math.Inf(1), 2, 4})
	out := c.Render(30, 8)
	if out == "" {
		t.Fatal("empty render")
	}
}

func TestChartAllNonFinite(t *testing.T) {
	c := &Chart{Title: "empty"}
	c.Add("s", []float64{math.NaN()}, []float64{math.NaN()})
	out := c.Render(30, 8)
	if !strings.Contains(out, "no finite data") {
		t.Fatalf("expected no-data message, got:\n%s", out)
	}
}

func TestChartConstantSeries(t *testing.T) {
	c := &Chart{}
	c.Add("flat", []float64{0, 1, 2}, []float64{5, 5, 5})
	if out := c.Render(30, 8); out == "" {
		t.Fatal("constant series broke rendering")
	}
}

func TestChartMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	(&Chart{}).Add("bad", []float64{1}, []float64{1, 2})
}

func TestChartMinimumSizeClamped(t *testing.T) {
	c := &Chart{}
	c.Add("s", []float64{0, 1}, []float64{0, 1})
	if out := c.Render(1, 1); out == "" {
		t.Fatal("tiny canvas broke rendering")
	}
}

func TestSVGScatterStructure(t *testing.T) {
	pos := []vec.Vec2{v2(0, 0), v2(1, 1), v2(2, 0)}
	types := []int{0, 1, 2}
	svg := SVGScatter("three <points>", pos, types, 300)
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Fatal("not an SVG document")
	}
	if strings.Count(svg, "<circle") != 3 {
		t.Fatalf("expected 3 circles:\n%s", svg)
	}
	if !strings.Contains(svg, "&lt;points&gt;") {
		t.Error("title not XML-escaped")
	}
	// Distinct types get distinct colours.
	if !strings.Contains(svg, typePalette[0]) || !strings.Contains(svg, typePalette[1]) {
		t.Error("type palette not applied")
	}
}

func TestSVGScatterNilTypes(t *testing.T) {
	svg := SVGScatter("", []vec.Vec2{v2(0, 0)}, nil, 0)
	if strings.Count(svg, "<circle") != 1 {
		t.Fatal("nil types broke scatter")
	}
}

func TestSVGLinesStructure(t *testing.T) {
	svg := SVGLines("curves", []string{"a", "b"},
		[][]float64{{0, 1, 2}, {0, 1, 2}},
		[][]float64{{0, 1, 4}, {4, 1, 0}}, 400)
	if strings.Count(svg, "<polyline") != 2 {
		t.Fatal("expected 2 polylines")
	}
	if !strings.Contains(svg, ">a</text>") || !strings.Contains(svg, ">b</text>") {
		t.Error("legend labels missing")
	}
}

func TestSVGLinesEmptyData(t *testing.T) {
	svg := SVGLines("empty", []string{"a"}, [][]float64{{}}, [][]float64{{}}, 200)
	if !strings.HasPrefix(svg, "<svg") {
		t.Fatal("empty data broke SVG")
	}
}

// TestWriteSeriesCSVOutput pins the exact bytes of the long-format CSV:
// the header, one row per point in series order, the shortest
// round-tripping float text, and the inf/-inf spellings.
func TestWriteSeriesCSVOutput(t *testing.T) {
	names := []string{"one", "two"}
	xs := [][]float64{{0, 1, 2}, {0, 5}}
	ys := [][]float64{{1.5, 1.0 / 3, 3.5}, {math.Inf(-1), math.Inf(1)}}
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, names, xs, ys); err != nil {
		t.Fatal(err)
	}
	const want = "series,x,y\n" +
		"one,0,1.5\n" +
		"one,1,0.3333333333333333\n" +
		"one,2,3.5\n" +
		"two,0,-inf\n" +
		"two,5,inf\n"
	if got := buf.String(); got != want {
		t.Fatalf("CSV =\n%s\nwant\n%s", got, want)
	}
}

func TestWriteSeriesCSVValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, []string{"a"}, nil, nil); err == nil {
		t.Error("mismatched inputs accepted")
	}
	if err := WriteSeriesCSV(&buf, []string{"a"}, [][]float64{{1}}, [][]float64{{1, 2}}); err == nil {
		t.Error("ragged series accepted")
	}
}
