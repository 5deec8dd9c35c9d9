package metrics

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// refHistogram is the sample-keeping Histogram the count histogram
// replaced, kept as the reference model: it appends every sample and sorts
// them for a quantile.
type refHistogram struct {
	samples []int64
	sorted  bool
	sum     int64
	max     int64
	min     int64
}

func (h *refHistogram) Observe(v int64) {
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

func (h *refHistogram) Count() int { return len(h.samples) }

func (h *refHistogram) Sum() int64 { return h.sum }

func (h *refHistogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return float64(h.sum) / float64(len(h.samples))
}

func (h *refHistogram) Min() int64 {
	if len(h.samples) == 0 {
		return 0
	}
	return h.min
}

func (h *refHistogram) Max() int64 {
	if len(h.samples) == 0 {
		return 0
	}
	return h.max
}

func (h *refHistogram) Quantile(q float64) int64 {
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

func (h *refHistogram) StdDev() float64 {
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

func (h *refHistogram) Reset() {
	h.samples = h.samples[:0]
	h.sum, h.min, h.max = 0, 0, 0
	h.sorted = false
}

func (h *refHistogram) Merge(other *refHistogram) {
	for _, v := range other.samples {
		h.Observe(v)
	}
}

// ascending returns the samples in ascending order.
func (h *refHistogram) ascending() []int64 {
	out := append([]int64(nil), h.samples...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// exactStdDev is the population standard deviation computed in exact
// integer arithmetic — variance = (n·Σv² − (Σv)²) / n² — and rounded once.
func exactStdDev(samples []int64) float64 {
	counts := make(map[int64]int64)
	for _, v := range samples {
		counts[v]++
	}
	sum, sumSq, t := new(big.Int), new(big.Int), new(big.Int)
	for v, c := range counts {
		t.SetInt64(v)
		t.Mul(t, big.NewInt(c))
		sum.Add(sum, t)
		t.Mul(t, big.NewInt(v))
		sumSq.Add(sumSq, t)
	}
	n := big.NewInt(int64(len(samples)))
	sumSq.Mul(sumSq, n)
	sumSq.Sub(sumSq, sum.Mul(sum, sum))
	variance, _ := new(big.Rat).SetFrac(sumSq, n.Mul(n, n)).Float64()
	return math.Sqrt(variance)
}

// histValues are the values the differential tests draw from: negatives,
// zero, small latencies, both sides of the dense cap and around 1e6 (µs
// latencies).
var histValues = []int64{
	math.MinInt32, -1_000_000, -1, 0, 1, 2, 3, 7, 63, 64, 65, 300,
	denseCap - 1, denseCap, denseCap + 1, 999_999, 1_000_000, 1_000_001,
}

// histValue draws one value: a listed one or a random one near it.
func histValue(rng *rand.Rand) int64 {
	v := histValues[rng.Intn(len(histValues))]
	if rng.Intn(2) == 0 {
		v += int64(rng.Intn(5)) - 2
	}
	return v
}

// accessors is what both histograms answer.
type accessors interface {
	Count() int
	Sum() int64
	Min() int64
	Max() int64
	Mean() float64
	Quantile(q float64) int64
}

// histView is every exactly comparable answer of a histogram whose samples
// in ascending order are asc.
type histView struct {
	Count                int
	Sum, Min, Max        int64
	Mean                 float64
	Quantiles            []int64
	Ascending, UpperHalf []int64
}

func view(h accessors, asc, upper []int64) histView {
	v := histView{Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(), Mean: h.Mean(), Ascending: asc, UpperHalf: upper}
	for _, q := range []float64{-1, 0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1, 2} {
		v.Quantiles = append(v.Quantiles, h.Quantile(q))
	}
	return v
}

// checkHistogram compares every accessor of h with the reference's.
func checkHistogram(h *Histogram, r *refHistogram) error {
	asc := r.ascending()
	want := view(r, asc, asc[len(asc)/2:])
	if got := view(h, h.Tail(0), h.Tail(h.Count()/2)); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("accessors %+v, reference %+v", got, want)
	}
	// StdDev sums per distinct value, the reference per sample: the two
	// round differently. They must agree to 1e-12 relative, or else the
	// count histogram must be the one nearer the exact value: over 10^5
	// samples spanning ±2^31 the reference's own rounding exceeds 1e-12.
	gs, ws := h.StdDev(), r.StdDev()
	if math.Abs(gs-ws) > 1e-12*ws {
		exact := exactStdDev(r.samples)
		if math.Abs(gs-exact) > 1e-12*exact || math.Abs(gs-exact) > math.Abs(ws-exact) {
			return fmt.Errorf("StdDev %v, reference %v, exact %v", gs, ws, exact)
		}
	}
	s := h.Summarize()
	if s.Count != r.Count() || s.P50 != r.Quantile(0.5) || s.P99 != r.Quantile(0.99) || s.Min != r.Min() || s.Max != r.Max() || s.Mean != r.Mean() {
		return fmt.Errorf("Summarize %+v disagrees with the reference", s)
	}
	return nil
}

// runHistogramOps drives a count histogram and the reference through the
// same seeded sequence of Observe, Merge and Reset, checking every accessor
// after each step. Two histograms per side let Merge fold a populated one,
// itself included.
func runHistogramOps(t *testing.T, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var h [2]Histogram
	var r [2]refHistogram
	for k := 0; k < ops; k++ {
		i := rng.Intn(2)
		switch op := rng.Intn(100); {
		case op < 85:
			v := histValue(rng)
			h[i].Observe(v)
			r[i].Observe(v)
		case op < 95:
			// Merging a histogram into itself doubles it; the cap keeps a
			// run's sample count, and the reference's sorting, bounded.
			j := rng.Intn(2)
			if r[i].Count()+r[j].Count() <= 1<<15 {
				h[i].Merge(&h[j])
				r[i].Merge(&r[j])
			}
		default:
			h[i].Reset()
			r[i].Reset()
		}
		if err := checkHistogram(&h[i], &r[i]); err != nil {
			t.Fatalf("seed %d op %d: %v", seed, k, err)
		}
	}
}

// TestHistogramMatchesReference runs the count histogram against the
// sample-keeping one it replaced: every accessor agrees exactly, StdDev to
// 1e-12 relative (its summation order differs).
func TestHistogramMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		runHistogramOps(t, seed, 400)
	}
}

func FuzzHistogramMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(50))
	f.Add(int64(-7), uint16(600))
	f.Fuzz(func(t *testing.T, seed int64, ops uint16) {
		runHistogramOps(t, seed, int(ops%1024))
	})
}

// TestHistogramFootprintFlat: a million latencies in [0, 300) cost the
// histogram a few KiB in total, not 8 MB of samples.
func TestHistogramFootprintFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vs := make([]int64, 1<<12)
	for i := range vs {
		vs[i] = int64(rng.Intn(300))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var h Histogram
	for i := 0; i < 1_000_000; i++ {
		h.Observe(vs[i&(len(vs)-1)])
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<10 {
		t.Fatalf("10^6 observations allocated %d bytes, want < 8 KiB", got)
	}
	if h.Count() != 1_000_000 || h.Quantile(1) != h.Max() {
		t.Fatal("histogram lost samples")
	}
}
