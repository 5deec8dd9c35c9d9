package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for _, v := range []int64{5, 1, 9, 3, 7} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 25 {
		t.Fatalf("Count=%d Sum=%d", h.Count(), h.Sum())
	}
	if h.Min() != 1 || h.Max() != 9 {
		t.Fatalf("Min=%d Max=%d", h.Min(), h.Max())
	}
	if h.Mean() != 5 {
		t.Fatalf("Mean=%v", h.Mean())
	}
	if got := h.Quantile(0.5); got != 5 {
		t.Fatalf("median=%d, want 5", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("q0=%d, want 1", got)
	}
	if got := h.Quantile(1); got != 9 {
		t.Fatalf("q1=%d, want 9", got)
	}
}

func TestHistogramObserveAfterQuantile(t *testing.T) {
	var h Histogram
	h.Observe(10)
	_ = h.Quantile(0.5)
	h.Observe(1) // must re-sort
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("q0 after late observe = %d, want 1", got)
	}
}

func TestHistogramStdDev(t *testing.T) {
	var h Histogram
	for _, v := range []int64{2, 4, 4, 4, 5, 5, 7, 9} {
		h.Observe(v)
	}
	if got := h.StdDev(); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("StdDev = %v, want 2", got)
	}
}

func TestHistogramMergeAndReset(t *testing.T) {
	var a, b Histogram
	a.Observe(1)
	b.Observe(3)
	b.Observe(5)
	a.Merge(&b)
	if a.Count() != 3 || a.Sum() != 9 {
		t.Fatalf("after merge Count=%d Sum=%d", a.Count(), a.Sum())
	}
	a.Reset()
	if a.Count() != 0 || a.Sum() != 0 || a.Max() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestSummary(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	s := h.Summarize()
	if s.Count != 100 || s.P50 != 50 || s.P99 != 99 || s.Max != 100 || s.Min != 1 {
		t.Fatalf("summary %+v", s)
	}
	if !strings.Contains(s.String(), "p99=99") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Throughput", "scheduler", "load", "tput")
	tb.AddRow("FIFO", 1.0, 0.5858)
	tb.AddRow("PIM-3", 1.0, 0.975)
	out := tb.String()
	for _, want := range []string{"== Throughput ==", "scheduler", "FIFO", "PIM-3", "0.5858"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Errorf("table has %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("ragged", "a", "b")
	tb.AddRow(1)          // short row
	tb.AddRow(1, 2, 3, 4) // long row: extras dropped
	out := tb.String()
	if !strings.Contains(out, "1") {
		t.Fatalf("output: %s", out)
	}
	if strings.Contains(out, "4") {
		t.Fatalf("extra cell rendered: %s", out)
	}
}

// Property: quantile is monotone in q and bounded by [Min, Max].
func TestQuickQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			h.Observe(int64(v))
		}
		prev := h.Quantile(0)
		for q := 0.0; q <= 1.0; q += 0.05 {
			cur := h.Quantile(q)
			if cur < prev || cur < h.Min() || cur > h.Max() {
				return false
			}
			prev = cur
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: mean is always within [Min, Max].
func TestQuickMeanBounded(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			h.Observe(int64(v))
		}
		m := h.Mean()
		return m >= float64(h.Min())-1e-9 && m <= float64(h.Max())+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
