// Package stats provides the numeric helpers and plain-text table/series
// formatting the experiment harness uses to print paper-style results.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Geomean returns the geometric mean of xs (0 for empty input).
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum of xs and its index (-1 for empty input).
func Max(xs []float64) (float64, int) {
	if len(xs) == 0 {
		return 0, -1
	}
	best, bi := xs[0], 0
	for i, x := range xs[1:] {
		if x > best {
			best, bi = x, i+1
		}
	}
	return best, bi
}

// OverheadPct formats a normalized execution time as a percentage
// overhead ("+0.60%", "-2.30%").
func OverheadPct(norm float64) string {
	return fmt.Sprintf("%+.2f%%", (norm-1)*100)
}

// PercentileInt64 returns the p-th percentile (0 < p <= 100) of xs by
// the nearest-rank method on a sorted copy: the smallest value with at
// least ceil(p/100*n) observations at or below it. Zero for empty
// input. Nearest-rank keeps the result an actual observation (exact
// for cycle counts) and is order-independent, so campaign aggregation
// over it stays deterministic at any worker count.
func PercentileInt64(xs []int64, p float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]int64, len(xs))
	copy(sorted, xs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Wilson returns the Wilson score confidence interval for a binomial
// proportion of k successes in n trials at critical value z (1.96 for
// 95%). Unlike the normal approximation it stays inside [0, 1] and
// behaves sanely at the extremes fault-injection campaigns live at
// (k = n or k = 0 with large n). n = 0 returns the vacuous [0, 1].
func Wilson(k, n int, z float64) (lo, hi float64) {
	return WilsonReal(float64(k), float64(n), z)
}

// Wilson95 is Wilson at the conventional 95% level.
func Wilson95(k, n int) (lo, hi float64) { return Wilson(k, n, 1.959963984540054) }

// Table is a simple aligned plain-text table.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row; values are formatted with %v, floats with 4 digits.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4f", v)
		case float32:
			row[i] = fmt.Sprintf("%.4f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteString("\n")
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
		total := 0
		for _, w := range width {
			total += w
		}
		b.WriteString(strings.Repeat("-", total+2*(cols-1)))
		b.WriteString("\n")
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Series is a named sequence of labeled values (one line of a figure).
type Series struct {
	Name   string
	Labels []string
	Values []float64
}

// String renders the series as "name: label=value ...".
func (s Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", s.Name)
	for i, v := range s.Values {
		label := ""
		if i < len(s.Labels) {
			label = s.Labels[i]
		}
		fmt.Fprintf(&b, " %s=%.4g", label, v)
	}
	return b.String()
}
