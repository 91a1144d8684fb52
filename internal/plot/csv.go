package plot

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
)

// WriteSeriesCSV writes named series as long-format CSV rows
// (series,x,y), the exchange format the figure CLI emits next to each
// chart. Series may have different lengths.
func WriteSeriesCSV(w io.Writer, names []string, xs, ys [][]float64) error {
	if len(names) != len(xs) || len(names) != len(ys) {
		return fmt.Errorf("plot: %d names, %d x-series, %d y-series", len(names), len(xs), len(ys))
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", "x", "y"}); err != nil {
		return err
	}
	for si, name := range names {
		if len(xs[si]) != len(ys[si]) {
			return fmt.Errorf("plot: series %q length mismatch", name)
		}
		for i := range xs[si] {
			rec := []string{name, formatFloat(xs[si][i]), formatFloat(ys[si][i])}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatFloat(x float64) string {
	if math.IsInf(x, 1) {
		return "inf"
	}
	if math.IsInf(x, -1) {
		return "-inf"
	}
	return strconv.FormatFloat(x, 'g', -1, 64)
}
