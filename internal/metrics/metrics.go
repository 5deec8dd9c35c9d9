// Package metrics provides the post-hoc measurement primitives used by
// the AN2 simulator's experiments: latency histograms with exact
// percentiles and fixed-width table rendering for experiment output.
// Event counts are package obs's counters; this package keeps none.
//
// The repo's instrumentation is split in two by concurrency contract:
//
//   - This package is single-goroutine and exact. Its types keep exact
//     per-value counts, not every sample — a run's histogram costs its
//     distinct values, not its length — so quantiles are still true order
//     statistics; but nothing here may be shared between goroutines.
//     Experiments record into metrics only from the goroutine that steps
//     the simulation (or after the goroutines they started join), which is
//     why every experiment table is built post-hoc.
//
//   - Package obs is the live, sharded collector. Its Registry hands out
//     cache-line-padded sharded counters/gauges/histograms that writers
//     update concurrently (each writer its own shard, reads sum all
//     shards), plus slot-clock ring-buffer series, at the price of
//     power-of-two histogram resolution. It is safe to scrape from another
//     goroutine while the simulation runs and free when disabled (nil
//     registry, single-branch no-ops).
//
// Rule of thumb: inside the simulation, obs; after it, metrics.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// denseCap bounds a histogram's dense count array: values in [0, denseCap)
// are counted by index, every other value in the sparse map. 4096 slots of
// latency cover every cell path the experiments build, at most 32 KiB per
// histogram.
const denseCap = 1 << 12

// Histogram records a distribution of int64 samples (typically latencies in
// cell slots) as exact per-value counts: memory grows with the number of
// distinct values, not with the number of samples. The zero value is ready
// to use.
type Histogram struct {
	// dense[v] counts the samples equal to v, for 0 ≤ v < len(dense); it
	// grows on demand up to denseCap entries.
	dense []int64
	// sparse counts every other value: negatives and values ≥ denseCap.
	// keys is its key set in ascending order while keysFresh holds.
	sparse    map[int64]int64
	keys      []int64
	keysFresh bool
	n         int
	sum       int64
	max       int64
	min       int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if uint64(v) < uint64(len(h.dense)) {
		h.dense[v]++
	} else {
		h.addSlow(v, 1)
	}
	if h.n == 0 {
		h.min, h.max = v, v
	} else if v < h.min {
		h.min = v
	} else if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// addSlow counts c samples of v where the dense array does not reach v
// yet: it grows the array when v is below denseCap and uses the sparse map
// otherwise.
func (h *Histogram) addSlow(v, c int64) {
	if v >= 0 && v < denseCap {
		if v >= int64(len(h.dense)) {
			grown := make([]int64, min(max(v+1, 2*int64(len(h.dense)), 64), denseCap))
			copy(grown, h.dense)
			h.dense = grown
		}
		h.dense[v] += c
		return
	}
	if h.sparse == nil {
		h.sparse = make(map[int64]int64)
	}
	if _, ok := h.sparse[v]; !ok {
		h.keysFresh = false
	}
	h.sparse[v] += c
}

// sortedKeys returns the sparse map's keys in ascending order.
func (h *Histogram) sortedKeys() []int64 {
	if !h.keysFresh {
		h.keys = h.keys[:0]
		for k := range h.sparse {
			h.keys = append(h.keys, k)
		}
		slices.Sort(h.keys)
		h.keysFresh = true
	}
	return h.keys
}

// ascend calls f with each distinct value and its count, in ascending
// value order, until f returns false.
func (h *Histogram) ascend(f func(v, c int64) bool) {
	keys := h.sortedKeys()
	i := 0
	for ; i < len(keys) && keys[i] < 0; i++ {
		if !f(keys[i], h.sparse[keys[i]]) {
			return
		}
	}
	for v, c := range h.dense {
		if c != 0 && !f(int64(v), c) {
			return
		}
	}
	for ; i < len(keys); i++ {
		if !f(keys[i], h.sparse[keys[i]]) {
			return
		}
	}
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() int { return h.n }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Min returns the smallest sample, or 0 with no samples.
func (h *Histogram) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() int64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by the nearest-rank rule —
// the ⌈q·n⌉-th smallest sample — or 0 with no samples.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := max(int64(math.Ceil(q*float64(h.n))), 1)
	var at int64
	h.ascend(func(v, c int64) bool {
		at = v
		rank -= c
		return rank > 0
	})
	return at
}

// StdDev returns the population standard deviation of the samples.
func (h *Histogram) StdDev() float64 {
	if h.n == 0 {
		return 0
	}
	mean := h.Mean()
	var ss float64
	h.ascend(func(v, c int64) bool {
		d := float64(v) - mean
		ss += float64(c) * d * d
		return true
	})
	return math.Sqrt(ss / float64(h.n))
}

// Reset discards all samples, keeping the storage for reuse.
func (h *Histogram) Reset() {
	clear(h.dense)
	clear(h.sparse)
	h.keys, h.keysFresh = h.keys[:0], false
	h.n, h.sum, h.min, h.max = 0, 0, 0, 0
}

// Merge folds the samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.n == 0 {
		return
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.n == 0 || other.max > h.max {
		h.max = other.max
	}
	h.n += other.n
	h.sum += other.sum
	for v, c := range other.dense {
		if c == 0 {
			continue
		}
		if v < len(h.dense) {
			h.dense[v] += c
		} else {
			h.addSlow(int64(v), c)
		}
	}
	for v, c := range other.sparse {
		h.addSlow(v, c)
	}
}

// Tail returns the samples in ascending order, without the first from of
// them.
func (h *Histogram) Tail(from int) []int64 {
	from = max(from, 0)
	if from >= h.n {
		return nil
	}
	out := make([]int64, 0, h.n-from)
	skip := int64(from)
	h.ascend(func(v, c int64) bool {
		if skip >= c {
			skip -= c
			return true
		}
		for c -= skip; c > 0; c-- {
			out = append(out, v)
		}
		skip = 0
		return true
	})
	return out
}

// Summary is a compact snapshot of a histogram for reporting.
type Summary struct {
	Count         int
	Mean          float64
	Min, P50, P99 int64
	Max           int64
	StdDev        float64
}

// Summarize computes a Summary of the histogram.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count:  h.Count(),
		Mean:   h.Mean(),
		Min:    h.Min(),
		P50:    h.Quantile(0.50),
		P99:    h.Quantile(0.99),
		Max:    h.Max(),
		StdDev: h.StdDev(),
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f min=%d p50=%d p99=%d max=%d sd=%.2f",
		s.Count, s.Mean, s.Min, s.P50, s.P99, s.Max, s.StdDev)
}

// Table renders experiment results as a fixed-width text table, in the
// style of the rows a paper's evaluation section reports.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; each cell is rendered with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Title returns the table's title.
func (t *Table) Title() string { return t.title }

// Headers returns a copy of the column headers.
func (t *Table) Headers() []string { return append([]string(nil), t.headers...) }

// Rows returns a copy of the rendered rows (cells as strings, exactly as
// String prints them) — the machine-readable view an2bench -json emits.
func (t *Table) Rows() [][]string {
	rows := make([][]string, len(t.rows))
	for i, r := range t.rows {
		rows[i] = append([]string(nil), r...)
	}
	return rows
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i >= len(widths) {
				break // extra cells beyond the headers are dropped
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
