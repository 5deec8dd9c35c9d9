// Package pim implements AN2's parallel iterative matching (paper §3), the
// algorithm that pairs crossbar inputs with outputs every cell slot.
//
// Each iteration has three steps, executed independently and in parallel at
// each port with no centralized scheduler:
//
//  1. Request: every unmatched input sends a request to every output it has
//     a buffered cell for.
//  2. Grant: every unmatched output that received requests grants one of
//     them uniformly at random.
//  3. Accept: every input that received grants accepts one and notifies the
//     output.
//
// Iterating "fills in the gaps": matches from previous iterations are
// retained, and repetition to quiescence yields a maximal matching. AN2's
// hardware budget allows three iterations per slot.
//
// The package provides one engine, Sequential: deterministic under a seed
// and allocation-free on the slotted simulator's hot path. The port
// decisions are independent within a step, so evaluating them in a fixed
// order on one goroutine computes exactly what the hardware's parallel
// ports do.
package pim

import (
	"math/bits"
	"math/rand"

	"repro/internal/matching"
)

// DefaultIterations is AN2's per-slot iteration budget (paper §3: "Because
// of its time limit, AN2 uses just three iterations").
const DefaultIterations = 3

// Result describes one run of the matcher.
//
// For Sequential engines, Match and NewMatches alias per-engine scratch
// buffers: they are valid until the engine's next Match call, so callers
// that retain a result across runs must copy it. The slotted simulator
// consumes each result within its slot, which is what makes the engine
// allocation-free on the hot path.
type Result struct {
	// Match is the computed matching (input -> output, -1 if unmatched).
	Match matching.Matching
	// Iterations is the number of iterations executed (for bounded runs
	// it is at most the budget; for runs to quiescence it is the number
	// of iterations until no new match was added, including the final
	// empty one).
	Iterations int
	// NewMatches[k] is the number of pairs added on iteration k.
	NewMatches []int
}

// Sequential is the deterministic PIM engine. It is not safe for concurrent
// use; the slotted simulator owns one per switch.
type Sequential struct {
	rng *rand.Rand
	// scratch, reused across runs to avoid per-slot allocation:
	grants     [][]int // grants[i] = outputs granting to input i this iteration
	requests   [][]int // requests[j] = inputs requesting output j this iteration
	inMatched  []bool
	outOwner   []int
	match      matching.Matching // backs Result.Match
	newMatches []int             // backs Result.NewMatches
}

// NewSequential creates a sequential engine drawing randomness from rng.
func NewSequential(rng *rand.Rand) *Sequential {
	return &Sequential{rng: rng}
}

func (s *Sequential) ensure(n int) {
	if len(s.inMatched) < n {
		s.grants = make([][]int, n)
		s.requests = make([][]int, n)
		s.inMatched = make([]bool, n)
		s.outOwner = make([]int, n)
		s.match = make(matching.Matching, n)
	}
}

// Match runs at most maxIter iterations (0 means run to quiescence, i.e.
// until an iteration adds no pair, which yields a maximal matching). The
// result's Match and NewMatches alias engine scratch (see Result).
func (s *Sequential) Match(r *matching.Requests, maxIter int) Result {
	n := r.N()
	s.ensure(n)
	m := s.match[:n]
	m.Reset()
	for i := 0; i < n; i++ {
		s.inMatched[i] = false
		s.outOwner[i] = -1
	}
	res := Result{Match: m, NewMatches: s.newMatches[:0]}
	for iter := 0; maxIter == 0 || iter < maxIter; iter++ {
		added := s.iterate(r, m)
		res.Iterations++
		res.NewMatches = append(res.NewMatches, added)
		if added == 0 {
			break
		}
	}
	s.newMatches = res.NewMatches
	return res
}

// iterate executes one request/grant/accept round, updating m in place and
// returning the number of new pairs.
func (s *Sequential) iterate(r *matching.Requests, m matching.Matching) int {
	n := r.N()
	// Step 1 — request: each unmatched input requests every output it has
	// a cell for. (Outputs already matched in a previous iteration ignore
	// requests; inputs need not know which outputs are taken.) The request
	// row is walked word-wise so no per-input output slice is built.
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
	// Step 2 — grant: each unmatched output picks one request uniformly at
	// random.
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
	// Step 3 — accept: each input with grants accepts one. The paper lets
	// the input choose arbitrarily; we pick uniformly at random, matching
	// the hardware's unbiased arbiter.
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

// IterationStats runs PIM to quiescence `trials` times over request
// patterns drawn by gen, and returns the distribution of iterations needed
// to reach a maximal matching. The paper proves E[iterations] ≤ log2 N +
// 4/3 and reports that ≥98% of slots converge within 4 iterations for
// N=16 (experiment E3).
func IterationStats(rng *rand.Rand, gen func(*rand.Rand) *matching.Requests, trials int) (mean float64, withinK map[int]float64) {
	seq := NewSequential(rng)
	counts := make(map[int]int)
	total := 0
	for t := 0; t < trials; t++ {
		r := gen(rng)
		res := seq.Match(r, 0)
		// The last iteration adds nothing; iterations-to-maximal is the
		// count of productive iterations, except an all-empty pattern
		// converges in 0. For comparability with the paper we count the
		// iterations needed so the matching is maximal, i.e. productive
		// rounds.
		productive := res.Iterations - 1
		if productive < 0 {
			productive = 0
		}
		counts[productive]++
		total += productive
	}
	withinK = make(map[int]float64)
	cum := 0
	maxIter := 8 // always report at least withinK[0..8]
	for k := range counts {
		if k > maxIter {
			maxIter = k
		}
	}
	for k := 0; k <= maxIter; k++ {
		cum += counts[k]
		withinK[k] = float64(cum) / float64(trials)
	}
	return float64(total) / float64(trials), withinK
}
