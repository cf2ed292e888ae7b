package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CurvePoint is one (time, value) sample of a training-loss curve.
type CurvePoint struct {
	Time  float64 `json:"time"`
	Value float64 `json:"value"`
}

// Curve is a named time series.
type Curve struct {
	Name   string       `json:"name"`
	Points []CurvePoint `json:"points"`
}

// Add appends a sample.
func (c *Curve) Add(t, v float64) {
	c.Points = append(c.Points, CurvePoint{Time: t, Value: v})
}

// Final returns the last recorded value (NaN when empty).
func (c *Curve) Final() float64 {
	if len(c.Points) == 0 {
		return math.NaN()
	}
	return c.Points[len(c.Points)-1].Value
}

// Min returns the smallest recorded value (NaN when empty).
func (c *Curve) Min() float64 {
	if len(c.Points) == 0 {
		return math.NaN()
	}
	m := math.Inf(1)
	for _, p := range c.Points {
		m = math.Min(m, p.Value)
	}
	return m
}

// TimeToReach returns the earliest time at which the curve drops to at most
// threshold, or NaN if it never does. Used for the Fig. 3 convergence-speed
// comparison (SCO takes 1.5–1.8× longer than LbChat).
func (c *Curve) TimeToReach(threshold float64) float64 {
	for _, p := range c.Points {
		if p.Value <= threshold {
			return p.Time
		}
	}
	return math.NaN()
}

// Render prints the curve as aligned "time value" rows.
func (c *Curve) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", c.Name)
	for _, p := range c.Points {
		fmt.Fprintf(&b, "%8.0f  %.6f\n", p.Time, p.Value)
	}
	return b.String()
}

// ReceiveStats counts model-transfer outcomes, the basis of the §IV-C
// "successful model receiving rate" comparison.
type ReceiveStats struct {
	Attempts  int `json:"attempts"`
	Successes int `json:"successes"`
}

// Record adds one transfer outcome.
func (s *ReceiveStats) Record(ok bool) {
	s.Attempts++
	if ok {
		s.Successes++
	}
}

// Rate returns the success fraction (NaN with no attempts).
func (s *ReceiveStats) Rate() float64 {
	if s.Attempts == 0 {
		return math.NaN()
	}
	return float64(s.Successes) / float64(s.Attempts)
}

// Merge accumulates other into s.
func (s *ReceiveStats) Merge(other ReceiveStats) {
	s.Attempts += other.Attempts
	s.Successes += other.Successes
}

// Table renders rows of labeled values in the paper's table style.
type Table struct {
	Title   string
	Columns []string
	rows    []tableRow
}

type tableRow struct {
	label  string
	values []float64
}

// NewTable creates a table with the given title and value-column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a labeled row; the number of values must match the columns.
func (t *Table) AddRow(label string, values ...float64) {
	t.rows = append(t.rows, tableRow{label: label, values: values})
}

// Rows returns the row labels in table order.
func (t *Table) Rows() []string {
	labels := make([]string, len(t.rows))
	for i, r := range t.rows {
		labels[i] = r.label
	}
	return labels
}

// Value returns the cell at (rowLabel, column), or NaN if absent.
func (t *Table) Value(rowLabel, column string) float64 {
	col := -1
	for i, c := range t.Columns {
		if c == column {
			col = i
			break
		}
	}
	if col < 0 {
		return math.NaN()
	}
	for _, r := range t.rows {
		if r.label == rowLabel && col < len(r.values) {
			return r.values[col]
		}
	}
	return math.NaN()
}

// Render prints the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	labelWidth := len("Task")
	for _, r := range t.rows {
		if len(r.label) > labelWidth {
			labelWidth = len(r.label)
		}
	}
	// Column width follows the widest header, so long names (e.g.
	// "LbChat-NoResume") never mash into their neighbor.
	colWidth := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		colWidth[i] = 12
		if len(c)+2 > colWidth[i] {
			colWidth[i] = len(c) + 2
		}
	}
	fmt.Fprintf(&b, "%-*s", labelWidth+2, "Task")
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%*s", colWidth[i], c)
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%-*s", labelWidth+2, r.label)
		for i, v := range r.values {
			w := 12
			if i < len(colWidth) {
				w = colWidth[i]
			}
			if v == math.Trunc(v) && math.Abs(v) < 1e6 {
				fmt.Fprintf(&b, "%*.0f", w, v)
			} else {
				fmt.Fprintf(&b, "%*.2f", w, v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SortedKeys returns the map's keys in sorted order, for deterministic
// rendering of per-protocol results.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// PlotCurves renders one or more curves as a shared ASCII chart: time on
// the x-axis, value on the y-axis, one mark character per curve. It is the
// terminal stand-in for the paper's loss-vs-time figures.
func PlotCurves(width, height int, curves ...*Curve) string {
	if width < 8 || height < 2 || len(curves) == 0 {
		return ""
	}
	marks := []byte{'*', '+', 'o', 'x', '#', '@', '%', '&'}
	minV, maxV := math.Inf(1), math.Inf(-1)
	var maxT float64
	for _, c := range curves {
		for _, p := range c.Points {
			minV = math.Min(minV, p.Value)
			maxV = math.Max(maxV, p.Value)
			maxT = math.Max(maxT, p.Time)
		}
	}
	if math.IsInf(minV, 1) || maxT == 0 {
		return ""
	}
	if maxV == minV {
		maxV = minV + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = make([]byte, width)
		for c := range grid[r] {
			grid[r][c] = ' '
		}
	}
	for ci, curve := range curves {
		mark := marks[ci%len(marks)]
		for _, p := range curve.Points {
			col := int(p.Time / maxT * float64(width-1))
			row := int((maxV - p.Value) / (maxV - minV) * float64(height-1))
			grid[row][col] = mark
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%.4f\n", maxV)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%.4f +%s t=%.0fs\n", minV, strings.Repeat("-", width-8), maxT)
	for i, c := range curves {
		fmt.Fprintf(&b, "  %c %s\n", marks[i%len(marks)], c.Name)
	}
	return b.String()
}
