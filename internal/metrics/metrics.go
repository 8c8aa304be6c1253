// Package metrics post-processes federated training results into the
// quantities the paper reports: time-to-accuracy (TTA), percentage
// reductions between strategies, and plain-text tables for the
// benchmark harness output.
package metrics

import (
	"fmt"
	"math"
	"strings"

	"haccs/internal/fl"
)

// TTA returns the virtual time at which the run first reached the target
// accuracy, interpolating linearly between evaluation points. The second
// return is false when the run never reached the target.
func TTA(history []fl.Point, target float64) (float64, bool) {
	prevTime, prevAcc := 0.0, 0.0
	for _, p := range history {
		if p.Acc >= target {
			if p.Acc == prevAcc {
				return p.Time, true
			}
			// Interpolate between the previous point and this one.
			frac := (target - prevAcc) / (p.Acc - prevAcc)
			if frac < 0 {
				frac = 0
			}
			return prevTime + frac*(p.Time-prevTime), true
		}
		prevTime, prevAcc = p.Time, p.Acc
	}
	return 0, false
}

// Reduction returns the fractional reduction of b relative to a:
// (a-b)/a. Positive values mean b is faster/smaller.
func Reduction(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (a - b) / a
}

// BestAccuracy returns the maximum accuracy any evaluation point
// reached.
func BestAccuracy(history []fl.Point) float64 {
	best := 0.0
	for _, p := range history {
		if p.Acc > best {
			best = p.Acc
		}
	}
	return best
}

// Table renders rows as a fixed-width plain-text table. Every row must
// have the same number of cells as the header.
type Table struct {
	Header []string
	Rows   [][]string
}

// NewTable constructs a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{Header: header} }

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	if len(cells) != len(t.Header) {
		panic(fmt.Sprintf("metrics: row has %d cells, header has %d", len(cells), len(t.Header)))
	}
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fmt.Sprintf("%v", v)
	}
	av := math.Abs(v)
	switch {
	case av != 0 && av < 0.01:
		return fmt.Sprintf("%.4g", v)
	case av < 10:
		return fmt.Sprintf("%.3f", v)
	case av < 1000:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
