package pim

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/matching"
)

// refSequential is the list-based engine Sequential replaced, kept as the
// reference model: per round it builds, in ascending port order, the list of
// inputs requesting each free output and the list of outputs granting to each
// input, and draws rng.Intn(len(list)) for every non-empty list.
type refSequential struct {
	rng       *rand.Rand
	grants    [][]int
	requests  [][]int
	inMatched []bool
	outOwner  []int
}

func (s *refSequential) match(r *matching.Requests, maxIter int) Result {
	n := r.N()
	s.grants = make([][]int, n)
	s.requests = make([][]int, n)
	s.inMatched = make([]bool, n)
	s.outOwner = make([]int, n)
	for j := range s.outOwner {
		s.outOwner[j] = -1
	}
	res := Result{Match: matching.NewMatching(n)}
	for iter := 0; maxIter == 0 || iter < maxIter; iter++ {
		added := s.iterate(r, res.Match)
		res.Iterations++
		res.NewMatches = append(res.NewMatches, added)
		if added == 0 {
			break
		}
	}
	return res
}

func (s *refSequential) iterate(r *matching.Requests, m matching.Matching) int {
	n := r.N()
	for j := 0; j < n; j++ {
		s.requests[j] = s.requests[j][:0]
	}
	for i := 0; i < n; i++ {
		if s.inMatched[i] {
			continue
		}
		for w, word := range r.Row(i) {
			base := w * 64
			for word != 0 {
				j := base + bits.TrailingZeros64(word)
				word &= word - 1
				if s.outOwner[j] < 0 {
					s.requests[j] = append(s.requests[j], i)
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		s.grants[i] = s.grants[i][:0]
	}
	for j := 0; j < n; j++ {
		reqs := s.requests[j]
		if len(reqs) == 0 {
			continue
		}
		pick := reqs[s.rng.Intn(len(reqs))]
		s.grants[pick] = append(s.grants[pick], j)
	}
	added := 0
	for i := 0; i < n; i++ {
		gr := s.grants[i]
		if len(gr) == 0 {
			continue
		}
		j := gr[s.rng.Intn(len(gr))]
		m[i] = j
		s.inMatched[i] = true
		s.outOwner[j] = i
		added++
	}
	return added
}

// TestSequentialMatchesReferenceModel runs the engine and the list-based
// reference from the same seed over random matrices: the matchings, the
// round counts and the per-round additions are identical, and so is the
// next number either generator yields — the two made the same draws.
func TestSequentialMatchesReferenceModel(t *testing.T) {
	gen := rand.New(rand.NewSource(99))
	for _, n := range []int{1, 4, 16, 24, 64, 65, 130} {
		for _, maxIter := range []int{0, 1, 3, 4} {
			seed := int64(1000*n + maxIter)
			rngA, rngB := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			eng := NewSequential(rngA)
			ref := &refSequential{rng: rngB}
			trials := 300
			if n > 64 {
				trials = 60
			}
			for trial := 0; trial < trials; trial++ {
				// Densities 0 and 1 come up by construction, the rest at
				// random; some matrices leave most rows empty.
				p := gen.Float64()
				switch trial % 10 {
				case 0:
					p = 0
				case 1:
					p = 1
				}
				r := matching.NewRequests(n)
				for i := 0; i < n; i++ {
					if trial%3 == 2 && gen.Intn(4) != 0 {
						continue
					}
					for j := 0; j < n; j++ {
						if gen.Float64() < p {
							r.Set(i, j)
						}
					}
				}
				got, want := eng.Match(r, maxIter), ref.match(r, maxIter)
				if got.Iterations != want.Iterations {
					t.Fatalf("n=%d maxIter=%d trial %d: %d iterations, reference %d", n, maxIter, trial, got.Iterations, want.Iterations)
				}
				if len(got.NewMatches) != len(want.NewMatches) {
					t.Fatalf("n=%d maxIter=%d trial %d: NewMatches %v, reference %v", n, maxIter, trial, got.NewMatches, want.NewMatches)
				}
				for k := range want.NewMatches {
					if got.NewMatches[k] != want.NewMatches[k] {
						t.Fatalf("n=%d maxIter=%d trial %d: NewMatches %v, reference %v", n, maxIter, trial, got.NewMatches, want.NewMatches)
					}
				}
				for i := range want.Match {
					if got.Match[i] != want.Match[i] {
						t.Fatalf("n=%d maxIter=%d trial %d: input %d matched to %d, reference %d", n, maxIter, trial, i, got.Match[i], want.Match[i])
					}
				}
				if a, b := rngA.Int63(), rngB.Int63(); a != b {
					t.Fatalf("n=%d maxIter=%d trial %d: random streams diverged", n, maxIter, trial)
				}
			}
		}
	}
}
