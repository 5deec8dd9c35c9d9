package pim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matching"
)

func uniformRequests(rng *rand.Rand, n int, p float64) *matching.Requests {
	r := matching.NewRequests(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < p {
				r.Set(i, j)
			}
		}
	}
	return r
}

func TestSequentialLegalAndRetainsMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seq := NewSequential(rng)
	for trial := 0; trial < 100; trial++ {
		r := uniformRequests(rng, 16, 0.3)
		res := seq.Match(r, DefaultIterations)
		if err := res.Match.Legal(r); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Iterations > DefaultIterations {
			t.Fatalf("ran %d iterations, budget %d", res.Iterations, DefaultIterations)
		}
		// Matches per iteration are cumulative: sum of NewMatches equals
		// final size.
		sum := 0
		for _, k := range res.NewMatches {
			sum += k
		}
		if sum != res.Match.Size() {
			t.Fatalf("NewMatches sums to %d, size is %d", sum, res.Match.Size())
		}
	}
}

func TestSequentialQuiescenceIsMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	seq := NewSequential(rng)
	for trial := 0; trial < 200; trial++ {
		r := uniformRequests(rng, 16, 0.2+0.6*rng.Float64())
		res := seq.Match(r, 0)
		if err := res.Match.Legal(r); err != nil {
			t.Fatal(err)
		}
		if !res.Match.Maximal(r) {
			t.Fatalf("trial %d: quiescent matching not maximal", trial)
		}
	}
}

func TestSequentialEmptyRequests(t *testing.T) {
	seq := NewSequential(rand.New(rand.NewSource(3)))
	r := matching.NewRequests(8)
	res := seq.Match(r, 0)
	if res.Match.Size() != 0 {
		t.Fatal("matched with no requests")
	}
	if res.Iterations != 1 {
		t.Fatalf("empty pattern took %d iterations, want 1 (the empty one)", res.Iterations)
	}
}

func TestSequentialSingleRequest(t *testing.T) {
	seq := NewSequential(rand.New(rand.NewSource(4)))
	r := matching.NewRequests(16)
	r.Set(5, 9)
	res := seq.Match(r, 1)
	if res.Match[5] != 9 {
		t.Fatalf("single request not matched in 1 iteration: %v", res.Match)
	}
}

// One iteration of PIM already yields a legal (if possibly non-maximal)
// matching; iteration only adds pairs, never removes (paper §3).
func TestIterationMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		r := uniformRequests(rng, 16, 0.4)
		// Same seed for both runs → identical random choices per iteration.
		seed := rng.Int63()
		res1 := NewSequential(rand.New(rand.NewSource(seed))).Match(r, 1)
		res3 := NewSequential(rand.New(rand.NewSource(seed))).Match(r, 3)
		for i, j := range res1.Match {
			if j >= 0 && res3.Match[i] != j {
				t.Fatalf("iteration 3 dropped pair %d->%d made in iteration 1", i, j)
			}
		}
		if res3.Match.Size() < res1.Match.Size() {
			t.Fatal("more iterations produced a smaller matching")
		}
	}
}

// The paper's bound: E[iterations to maximal] <= log2(N) + 4/3 (= 5.32 for
// N=16), independent of arrival pattern. We verify for uniform and for a
// skewed adversarial pattern.
func TestPIMConvergenceBound(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	bound := math.Log2(16) + 4.0/3.0
	gens := map[string]func(*rand.Rand) *matching.Requests{
		"uniform-dense": func(r *rand.Rand) *matching.Requests { return uniformRequests(r, 16, 0.5) },
		"uniform-full":  func(r *rand.Rand) *matching.Requests { return uniformRequests(r, 16, 1.0) },
		"hotspot": func(r *rand.Rand) *matching.Requests {
			// Every input requests output 0 plus one random other.
			req := matching.NewRequests(16)
			for i := 0; i < 16; i++ {
				req.Set(i, 0)
				req.Set(i, 1+r.Intn(15))
			}
			return req
		},
	}
	for name, gen := range gens {
		mean, withinK := IterationStats(rng, gen, 3000)
		if mean > bound {
			t.Errorf("%s: mean iterations %.3f exceeds bound %.3f", name, mean, bound)
		}
		if got := withinK[4]; got < 0.98 {
			t.Errorf("%s: only %.1f%% of runs maximal within 4 iterations, want >= 98%%", name, got*100)
		}
	}
}

// No starvation: under the paper's adversarial pattern (input 0 always
// wants outputs 1 and 2; input 3 always wants output 2), PIM's randomness
// serves every (input, output) pair. This is the complement of experiment
// E5's maximum-matching starvation.
func TestPIMNoStarvation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	seq := NewSequential(rng)
	served := map[[2]int]int{}
	const slots = 2000
	for s := 0; s < slots; s++ {
		r := matching.NewRequests(4)
		r.Set(0, 1)
		r.Set(0, 2)
		r.Set(3, 2)
		res := seq.Match(r, DefaultIterations)
		for i, j := range res.Match {
			if j >= 0 {
				served[[2]int{i, j}]++
			}
		}
	}
	// Pair (0,2) is the one maximum matching starves; PIM must serve it a
	// fair share (roughly half the slots give 0->2 vs 0->1).
	if got := served[[2]int{0, 2}]; got < slots/5 {
		t.Fatalf("pair 0->2 served only %d/%d slots; PIM should not starve it", got, slots)
	}
	if got := served[[2]int{3, 2}]; got < slots/5 {
		t.Fatalf("pair 3->2 served only %d/%d slots", got, slots)
	}
}

// By contrast, deterministic maximum matching starves 0->2 completely.
func TestMaximumMatchingStarvation(t *testing.T) {
	served := map[[2]int]int{}
	const slots = 500
	for s := 0; s < slots; s++ {
		r := matching.NewRequests(4)
		r.Set(0, 1)
		r.Set(0, 2)
		r.Set(3, 2)
		m := matching.HopcroftKarp(r)
		for i, j := range m {
			if j >= 0 {
				served[[2]int{i, j}]++
			}
		}
	}
	if served[[2]int{0, 2}] != 0 {
		t.Fatalf("deterministic maximum matching served 0->2 %d times; expected starvation", served[[2]int{0, 2}])
	}
	if served[[2]int{0, 1}] != slots || served[[2]int{3, 2}] != slots {
		t.Fatal("maximum matching should always pick 0->1 and 3->2")
	}
}

func TestSequentialReuseAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	seq := NewSequential(rng)
	for _, n := range []int{16, 4, 32, 8} {
		r := uniformRequests(rng, n, 0.5)
		res := seq.Match(r, 0)
		if err := res.Match.Legal(r); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !res.Match.Maximal(r) {
			t.Fatalf("n=%d: not maximal", n)
		}
	}
}

// Property: for any request pattern, PIM with budget k produces a legal
// matching, and with unlimited budget a maximal one.
func TestQuickPIMLegalMaximal(t *testing.T) {
	f := func(seed int64, rawN, rawBudget uint8) bool {
		n := int(rawN%16) + 1
		budget := int(rawBudget % 6) // 0..5, 0 = quiescence
		rng := rand.New(rand.NewSource(seed))
		r := uniformRequests(rng, n, 0.3)
		res := NewSequential(rng).Match(r, budget)
		if res.Match.Legal(r) != nil {
			return false
		}
		if budget == 0 && !res.Match.Maximal(r) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSequentialPIM16x3(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	r := uniformRequests(rng, 16, 0.4)
	seq := NewSequential(rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seq.Match(r, DefaultIterations)
	}
}
