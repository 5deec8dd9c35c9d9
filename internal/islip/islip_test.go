package islip

import (
	"math/rand"
	"testing"

	"repro/internal/matching"
	"repro/internal/sched"
)

var _ sched.Scheduler = (*Scheduler)(nil)

func randomRequests(rng *rand.Rand, n int, p float64) *matching.Requests {
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

// Property test against internal/matching: every matching iSLIP emits is
// legal (conflict-free, backed by real requests), and with an unbounded
// iteration budget it is maximal.
func TestLegalAndMaximal(t *testing.T) {
	gen := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 4, 8, 16} {
		bounded := New(n, DefaultIterations, 1)
		exhaustive := New(n, 0, 1)
		for _, p := range []float64{0.1, 0.3, 0.7, 1.0} {
			for step := 0; step < 100; step++ {
				r := randomRequests(gen, n, p)
				if res := bounded.Schedule(r); res.Match.Legal(r) != nil {
					t.Fatalf("n=%d p=%.1f step %d: %v", n, p, step, res.Match.Legal(r))
				}
				res := exhaustive.Schedule(r)
				if err := res.Match.Legal(r); err != nil {
					t.Fatalf("n=%d p=%.1f step %d: %v", n, p, step, err)
				}
				if !res.Match.Maximal(r) {
					t.Fatalf("n=%d p=%.1f step %d: exhaustive iSLIP non-maximal", n, p, step)
				}
				if res.Iterations > n+1 {
					t.Fatalf("n=%d: quiescence took %d iterations", n, res.Iterations)
				}
			}
		}
	}
}

// iSLIP is deterministic: identical seeds and request sequences produce
// identical matchings (there is no hidden randomness).
func TestDeterministicUnderSeed(t *testing.T) {
	for _, seed := range []int64{0, 1, 42} {
		a, b := New(16, 2, seed), New(16, 2, seed)
		gen := rand.New(rand.NewSource(3))
		var seq []*matching.Requests
		for step := 0; step < 200; step++ {
			seq = append(seq, randomRequests(gen, 16, 0.4))
		}
		for step, r := range seq {
			ra, rb := a.Schedule(r), b.Schedule(r)
			if ra.Iterations != rb.Iterations {
				t.Fatalf("seed %d step %d: iteration counts differ", seed, step)
			}
			for i := range ra.Match {
				if ra.Match[i] != rb.Match[i] {
					t.Fatalf("seed %d step %d: matchings differ at input %d", seed, step, i)
				}
			}
		}
	}
}

// The defining iSLIP property: under saturated uniform demand (every input
// wants every output), the round-robin pointers desynchronize within N
// slots, after which a SINGLE iteration per slot serves a full permutation
// — 100% throughput. Single-iteration PIM cannot do this (it converges to
// ~63% served ports).
func TestPointerDesynchronization(t *testing.T) {
	const n = 16
	s := New(n, 1, 0) // one iteration per slot, all pointers at 0
	full := matching.NewRequests(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			full.Set(i, j)
		}
	}
	// Warm up: pointer desynchronization completes within n slots.
	for slot := 0; slot < n; slot++ {
		s.Schedule(full)
	}
	for slot := 0; slot < 4*n; slot++ {
		res := s.Schedule(full)
		if got := res.Match.Size(); got != n {
			t.Fatalf("slot %d after warmup: matched %d of %d ports with 1 iteration", slot, got, n)
		}
	}
	// Desynchronized means: all grant pointers distinct.
	grant := s.grant
	seen := make([]bool, n)
	for _, g := range grant {
		if seen[g] {
			t.Fatalf("grant pointers not desynchronized: %v", grant)
		}
		seen[g] = true
	}
}

// Round-robin arbiters starve no persistently backlogged pair — the E5
// adversarial pattern (input 0 -> {1,2}, input 3 -> {2}) that deterministic
// maximum matching starves.
func TestNoStarvationOnAdversarialPattern(t *testing.T) {
	s := New(4, DefaultIterations, 0)
	served := map[[2]int]int{}
	for slot := 0; slot < 2000; slot++ {
		r := matching.NewRequests(4)
		r.Set(0, 1)
		r.Set(0, 2)
		r.Set(3, 2)
		for i, j := range s.Schedule(r).Match {
			if j >= 0 {
				served[[2]int{i, j}]++
			}
		}
	}
	for _, pair := range [][2]int{{0, 1}, {0, 2}, {3, 2}} {
		if served[pair] == 0 {
			t.Fatalf("pair %v starved: service counts %v", pair, served)
		}
	}
	// Output 2 is contended; round-robin must split it roughly evenly.
	lo, hi := served[[2]int{0, 2}], served[[2]int{3, 2}]
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo*3 < hi {
		t.Fatalf("contended output split unfairly: %v", served)
	}
}

// Seeded construction randomizes initial pointers but stays deterministic.
func TestSeededInitialPointers(t *testing.T) {
	a, b := New(16, 1, 5), New(16, 1, 5)
	ga := a.grant
	gb := b.grant
	for p := range ga {
		if ga[p] != gb[p] {
			t.Fatal("same seed produced different initial pointers")
		}
	}
	zero := New(16, 1, 0).grant
	for _, g := range zero {
		if g != 0 {
			t.Fatal("seed 0 must start pointers at 0")
		}
	}
}
