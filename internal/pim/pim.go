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
// ports do. Like the hardware, a port with nothing to say takes no part: a
// round visits only the inputs that request, the outputs that were asked and
// the inputs that were granted, so a run costs the requests present, not the
// switch size.
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
//
// The requests an output received and the grants an input received are
// bitsets, visited in ascending order. An output (an input) holding k
// requests (grants) draws rng.Intn(k) and takes the set bit of that rank —
// the element an ascending list of the same set holds at that index — so the
// random stream and every matching are those of the list-based engine this
// one replaced (kept in ref_test.go as the reference model).
type Sequential struct {
	rng *rand.Rand
	// Scratch for n ports (words per set), reused across runs; requests,
	// grants, asked and granted are all zero between rounds.
	n, words   int
	requests   []uint64          // n sets: requests[j] = unmatched inputs requesting free output j
	grants     []uint64          // n sets: grants[i] = outputs granting to input i
	asked      []uint64          // outputs that received a request this round
	granted    []uint64          // inputs that received a grant this round
	active     []uint64          // unmatched inputs that still request a free output
	outTaken   []uint64          // outputs matched so far this run
	matched    []uint64          // inputs matched so far this run: the entries of match that are not -1
	match      matching.Matching // backs Result.Match
	newMatches []int             // backs Result.NewMatches
}

// NewSequential creates a sequential engine drawing randomness from rng.
func NewSequential(rng *rand.Rand) *Sequential {
	return &Sequential{rng: rng}
}

func (s *Sequential) ensure(n int) {
	if s.n == n {
		return
	}
	w := matching.WordsFor(n)
	s.n, s.words = n, w
	s.requests = make([]uint64, n*w)
	s.grants = make([]uint64, n*w)
	s.asked = make([]uint64, w)
	s.granted = make([]uint64, w)
	s.active = make([]uint64, w)
	s.outTaken = make([]uint64, w)
	s.matched = make([]uint64, w)
	s.match = matching.NewMatching(n)
}

// Match runs at most maxIter iterations (0 means run to quiescence, i.e.
// until an iteration adds no pair, which yields a maximal matching). The
// result's Match and NewMatches alias engine scratch (see Result).
func (s *Sequential) Match(r *matching.Requests, maxIter int) Result {
	s.ensure(r.N())
	for w, rows := range r.Rows() {
		// Undo the previous run: only its matched inputs are not -1.
		for word := s.matched[w]; word != 0; word &= word - 1 {
			s.match[w*64+bits.TrailingZeros64(word)] = -1
		}
		s.matched[w], s.outTaken[w], s.active[w] = 0, 0, rows
	}
	res := Result{Match: s.match, NewMatches: s.newMatches[:0]}
	for iter := 0; maxIter == 0 || iter < maxIter; iter++ {
		added := s.iterate(r)
		res.Iterations++
		res.NewMatches = append(res.NewMatches, added)
		if added == 0 {
			break
		}
	}
	s.newMatches = res.NewMatches
	return res
}

// iterate executes one request/grant/accept round, updating s.match in place
// and returning the number of new pairs.
func (s *Sequential) iterate(r *matching.Requests) int {
	nw := s.words
	// Step 1 — request: each unmatched input requests every output it has
	// a cell for. (Outputs already matched in a previous iteration ignore
	// requests; inputs need not know which outputs are taken.) An input
	// with no free output left to ask drops out of the later rounds.
	for w, word := range s.active {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			bit := uint64(1) << (uint(i) % 64)
			var any uint64
			for rw, free := range r.Row(i) {
				free &^= s.outTaken[rw]
				any |= free
				s.asked[rw] |= free
				for ; free != 0; free &= free - 1 {
					j := rw*64 + bits.TrailingZeros64(free)
					s.requests[j*nw+w] |= bit
				}
			}
			if any == 0 {
				s.active[w] &^= bit
			}
		}
	}
	// Step 2 — grant: each unmatched output picks one request uniformly at
	// random.
	for w, word := range s.asked {
		for ; word != 0; word &= word - 1 {
			j := w*64 + bits.TrailingZeros64(word)
			pick := pickOne(s.rng, s.requests[j*nw:(j+1)*nw])
			s.grants[pick*nw+w] |= 1 << (uint(j) % 64)
			s.granted[pick/64] |= 1 << (uint(pick) % 64)
		}
		s.asked[w] = 0
	}
	// Step 3 — accept: each input with grants accepts one. The paper lets
	// the input choose arbitrarily; we pick uniformly at random, matching
	// the hardware's unbiased arbiter.
	added := 0
	for w, word := range s.granted {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			j := pickOne(s.rng, s.grants[i*nw:(i+1)*nw])
			s.match[i] = j
			s.outTaken[j/64] |= 1 << (uint(j) % 64)
			added++
		}
		s.active[w] &^= s.granted[w]
		s.matched[w] |= s.granted[w]
		s.granted[w] = 0
	}
	return added
}

// pickOne draws one member of the non-empty set uniformly at random — one
// rng.Intn(size) call, also for a singleton — empties the set and returns
// the member: the set bit whose ascending rank is the number drawn.
func pickOne(rng *rand.Rand, set []uint64) int {
	size := 0
	for _, word := range set {
		size += bits.OnesCount64(word)
	}
	// k counts down the rank still to skip; it goes negative once the pick
	// is made, which no later word's count can match.
	k, pick := rng.Intn(size), 0
	for w, word := range set {
		set[w] = 0
		c := bits.OnesCount64(word)
		if uint(k) < uint(c) {
			for ; k > 0; k-- {
				word &= word - 1
			}
			pick = w*64 + bits.TrailingZeros64(word)
		}
		k -= c
	}
	return pick
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
