// Package metrics provides the evaluation arithmetic (precision, recall,
// F1 over frame sets) and the report rendering (aligned ASCII tables,
// CSV) used by the benchmark harness to regenerate the paper's tables
// and figures.
package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Confusion is a binary confusion matrix.
type Confusion struct {
	TP, FP, FN, TN int
}

// Add accumulates one prediction/truth pair.
func (c *Confusion) Add(pred, truth bool) {
	switch {
	case pred && truth:
		c.TP++
	case pred && !truth:
		c.FP++
	case !pred && truth:
		c.FN++
	default:
		c.TN++
	}
}

// Precision returns TP/(TP+FP); 0 when undefined.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN); 0 when undefined.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// PositiveRate returns the fraction of truth-positive samples.
func (c Confusion) PositiveRate() float64 {
	n := c.TP + c.FP + c.FN + c.TN
	if n == 0 {
		return 0
	}
	return float64(c.TP+c.FN) / float64(n)
}

// CompareFrameSets builds a confusion matrix from predicted and truth
// frame sets over a universe of total frames.
func CompareFrameSets(pred, truth map[int]bool, total int) Confusion {
	var c Confusion
	for i := 0; i < total; i++ {
		c.Add(pred[i], truth[i])
	}
	return c
}

// CompareMatched builds a confusion matrix from a matched vector against
// a truth set keyed by frame position.
func CompareMatched(matched []bool, truth map[int]bool) Confusion {
	var c Confusion
	for i, m := range matched {
		c.Add(m, truth[i])
	}
	return c
}

// Series is a labeled sequence of (x, y) points, used for figure-style
// outputs (e.g. per-frame time curves).
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Report is a paper-style table: a title, a header row, data rows, and
// free-form notes (expected-shape commentary). Metrics carries the
// report's machine-readable values — named scalars the
// bench-regression gate checks against bench_baselines.json, so a
// regression fails the build instead of hiding in a printed table.
type Report struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	Curves []Series

	Metrics map[string]float64 `json:",omitempty"`
}

// AddRow appends a data row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// SetMetric records one machine-readable scalar for the regression gate.
func (r *Report) SetMetric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[name] = v
}

// Metric returns a named scalar and whether it is present.
func (r *Report) Metric(name string) (float64, bool) {
	v, ok := r.Metrics[name]
	return v, ok
}

// AddNote appends a note line.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report as an aligned ASCII table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, s := range r.Curves {
		fmt.Fprintf(&b, "series %s: %d points\n", s.Label, len(s.X))
	}
	return b.String()
}

// CSV renders the table rows as comma-separated values.
func (r *Report) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Header, ","))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Ratio formats a speedup ratio the way the paper's figures annotate
// bars ("4.9x").
func Ratio(base, v float64) string {
	if v == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", base/v)
}

// Ms formats milliseconds compactly.
func Ms(v float64) string { return fmt.Sprintf("%.1f", v) }

// Sec formats a millisecond value as seconds.
func Sec(ms float64) string { return fmt.Sprintf("%.1f", ms/1000) }

// SortedKeys returns sorted keys of an int-set (stable test output).
func SortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
