// Package metrics provides the post-hoc measurement primitives used by
// the AN2 simulator's experiments: latency histograms with exact
// percentiles and fixed-width table rendering for experiment output.
// Event counts are package obs's counters; this package keeps none.
//
// The repo's instrumentation is split in two by concurrency contract:
//
//   - This package is single-goroutine and exact. Its types keep every
//     sample, so quantiles are true order statistics — but nothing here
//     may be shared between goroutines. Experiments record into metrics
//     only from the goroutine that steps the simulation (or after the
//     goroutines they started join), which is why every experiment table
//     is built post-hoc.
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
	"sort"
	"strings"
)

// Histogram records a distribution of int64 samples (typically latencies in
// cell slots). The zero value is ready to use.
type Histogram struct {
	samples []int64
	sorted  bool
	sum     int64
	max     int64
	min     int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if len(h.samples) == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.samples = append(h.samples, v)
	h.sum += v
	h.sorted = false
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() int { return len(h.samples) }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return float64(h.sum) / float64(len(h.samples))
}

// Min returns the smallest sample, or 0 with no samples.
func (h *Histogram) Min() int64 {
	if len(h.samples) == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() int64 {
	if len(h.samples) == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using nearest-rank
// interpolation, or 0 with no samples.
func (h *Histogram) Quantile(q float64) int64 {
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
	if q <= 0 {
		return h.samples[0]
	}
	if q >= 1 {
		return h.samples[len(h.samples)-1]
	}
	idx := int(math.Ceil(q*float64(len(h.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	return h.samples[idx]
}

// StdDev returns the population standard deviation of the samples.
func (h *Histogram) StdDev() float64 {
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	mean := h.Mean()
	var ss float64
	for _, v := range h.samples {
		d := float64(v) - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Reset discards all samples.
func (h *Histogram) Reset() {
	h.samples = h.samples[:0]
	h.sum, h.min, h.max = 0, 0, 0
	h.sorted = false
}

// Merge folds the samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	for _, v := range other.samples {
		h.Observe(v)
	}
}

// Tail returns a copy of the samples recorded at index from or later, in
// recording order. Note Quantile sorts the samples in place, so callers
// pairing Tail with a recorded start index must not interleave Quantile
// calls between the capture and the read.
func (h *Histogram) Tail(from int) []int64 {
	if from < 0 {
		from = 0
	}
	if from >= len(h.samples) {
		return nil
	}
	return append([]int64(nil), h.samples[from:]...)
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
