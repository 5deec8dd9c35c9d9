package main

import (
	"math"
	"sort"
)

// A timed window is cut into parts of about partSeconds each, at least
// minParts and at most maxParts of them. Every timing metric is computed per
// part and printed as a spread; the reported value is measured over the
// window's quiet parts (quietParts).
const (
	partSeconds = 0.2
	minParts    = 5
	maxParts    = 100
)

// partCount is how many parts a window planned to last seconds is cut into.
func partCount(seconds float64) int {
	return max(minParts, min(maxParts, int(seconds/partSeconds)))
}

// metric is one reported number: its value, unit, the spread of the parts
// it summarizes, and how many samples stand behind it.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread"`
	N      int64   `json:"n"`
	// Parts are the per-part values Value summarizes (timing metrics only),
	// in window order.
	Parts []float64 `json:"parts,omitempty"`
}

// percentile returns the q-quantile (0..1) of sorted by the nearest-rank
// rule: the smallest sample with at least q of the samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value (mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile returns the q-quantile (0..1) of xs, interpolating linearly
// between the two nearest order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := q * float64(len(s)-1)
	lo := int(math.Floor(at))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (at-float64(lo))*(s[hi]-s[lo])
}

// quietShare is the share of a timed window its metrics are measured over:
// the parts with the highest throughput, the quietest tenth of the window.
// Everything that disturbs a run on a shared host (another tenant's burst, a
// stolen CPU, a cold cache) makes a part slower, never faster, so the quiet
// parts repeat from run to run where the whole window follows the weather;
// what the program itself does in every part is in the quiet ones too.
const quietShare = 0.10

// quietParts returns the indices of a window's quiet parts, given every
// part's throughput: the ceil(quietShare x n) fastest, fastest first.
func quietParts(perS []float64) []int {
	idx := make([]int, len(perS))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return perS[idx[a]] > perS[idx[b]] })
	return idx[:int(math.Ceil(quietShare*float64(len(idx))))]
}

// windowMetric is the reported form of a timed window's metric: the value
// measured over the window's quiet parts, and every part's own value with
// their interquartile range as a share of their median, the spread, beside it.
func windowMetric(value float64, parts []float64, unit string, n int64) metric {
	spread := 0.0
	if m := median(parts); m != 0 {
		spread = (quantile(parts, 0.75) - quantile(parts, 0.25)) / math.Abs(m)
	}
	return metric{Value: value, Unit: unit, Spread: spread, N: n, Parts: parts}
}

// quietOfReps is the reported form of a timing repeated several times (a
// set-up, a ladder rung), n operations in all: the quietShare quantile of the
// repetitions, counted from the fast end.
func quietOfReps(reps []float64, unit string, n int64) metric {
	return windowMetric(quantile(reps, quietShare), reps, unit, n)
}

// medianOfParts is the folded form of a set of result files: the median of
// their values with the (max-min)/median spread between them beside it.
func medianOfParts(parts []float64, unit string, n int64) metric {
	m := median(parts)
	spread := 0.0
	if len(parts) > 0 && m != 0 {
		lo, hi := parts[0], parts[0]
		for _, p := range parts {
			lo = math.Min(lo, p)
			hi = math.Max(hi, p)
		}
		spread = (hi - lo) / math.Abs(m)
	}
	return metric{Value: m, Unit: unit, Spread: spread, N: n, Parts: parts}
}

// single is a metric with no parts behind it: a count or a whole-run value.
func single(v float64, unit string, n int64) metric {
	return metric{Value: v, Unit: unit, N: n}
}

// partBounds cuts n items into parts contiguous runs of near-equal size,
// returning the parts+1 boundaries.
func partBounds(n, parts int) []int {
	b := make([]int, parts+1)
	for i := range b {
		b[i] = n * i / parts
	}
	return b
}

// splitmix is the generator's seeded random source: small, fast, and the
// same on every Go version, so a seed names one input sequence for good.
type splitmix uint64

func (r *splitmix) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// newStream returns the generator for one use of a seed. The seed and the
// stream number are mixed before they become the state: splitmix states that
// differ by a small amount produce the same sequence shifted, so seeds 1 and
// 2 must not become neighbouring states.
func newStream(seed, stream uint64) splitmix {
	a, b := splitmix(seed), splitmix(^stream)
	return splitmix(a.next() ^ b.next()<<1)
}

// intn returns a value in [0, n).
func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// chance reports true with probability p.
func (r *splitmix) chance(p float64) bool {
	return float64(r.next()>>11)/(1<<53) < p
}
