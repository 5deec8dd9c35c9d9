// Package islip implements the iSLIP input-queued switch scheduler
// (McKeown; see also the linear-algebraic tutorial in PAPERS.md), the
// round-robin successor to the parallel iterative matching AN2 shipped.
//
// iSLIP keeps PIM's three-step iteration — request, grant, accept — but
// replaces both random choices with round-robin arbiters:
//
//  1. Request: every unmatched input requests every output it has a
//     buffered cell for.
//  2. Grant: every unmatched output grants the requesting input that
//     appears next at or after its grant pointer g[j].
//  3. Accept: every input with grants accepts the granting output that
//     appears next at or after its accept pointer a[i].
//
// Pointers advance one position beyond the chosen port only when a grant
// is accepted, and only in the first iteration of a slot. That single rule
// is the whole trick: under sustained load the grant pointers
// desynchronize — each output's pointer comes to rest on a different
// input — so the arbiters stop colliding and a single iteration per slot
// sustains ~100% throughput under uniform traffic, where single-iteration
// PIM saturates near 63%. Because every arbiter is round-robin, no
// (input, output) pair with persistent demand can starve, matching PIM's
// fairness without its per-slot randomness.
//
// The engine is fully deterministic: the only effect of the construction
// seed is the initial pointer positions (seed 0 starts every pointer at
// port 0). Identical seeds and request sequences yield identical
// matchings.
package islip

import (
	"math/rand"

	"repro/internal/matching"
	"repro/internal/sched"
)

// DefaultIterations mirrors AN2's hardware budget for PIM. iSLIP converges
// faster than PIM — one iteration already sustains full uniform load — but
// extra iterations fill in gaps under non-uniform traffic.
const DefaultIterations = 3

// Scheduler is the iSLIP engine. It implements sched.Scheduler and is not
// safe for concurrent use.
type Scheduler struct {
	n     int
	iters int
	grant []int // g[j]: next input output j prefers
	accpt []int // a[i]: next output input i prefers
	// scratch, reused across slots:
	grants    [][]int // grants[i] = outputs granting to input i this iteration
	inMatched []bool
	outOwner  []int
	match     matching.Matching // backs Result.Match
}

// New creates an iSLIP scheduler for an n×n switch with the given per-slot
// iteration budget (<= 0 runs each slot to quiescence, yielding a maximal
// matching). seed randomizes the initial pointer positions; 0 starts all
// pointers at port 0. Either way the engine is deterministic.
func New(n, iters int, seed int64) *Scheduler {
	if iters < 0 {
		iters = 0
	}
	s := &Scheduler{
		n:         n,
		iters:     iters,
		grant:     make([]int, n),
		accpt:     make([]int, n),
		grants:    make([][]int, n),
		inMatched: make([]bool, n),
		outOwner:  make([]int, n),
		match:     make(matching.Matching, n),
	}
	if seed != 0 {
		rng := rand.New(rand.NewSource(seed))
		for p := 0; p < n; p++ {
			s.grant[p] = rng.Intn(n)
			s.accpt[p] = rng.Intn(n)
		}
	}
	return s
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "islip" }

// Schedule implements sched.Scheduler: it runs up to the iteration budget
// of request/grant/accept rounds, retaining matches across rounds, and
// returns the resulting conflict-free matching. The result's Match aliases
// scheduler scratch and is valid until the next Schedule call.
func (s *Scheduler) Schedule(r *matching.Requests) sched.Result {
	n := s.n
	m := s.match
	m.Reset()
	for p := 0; p < n; p++ {
		s.inMatched[p] = false
		s.outOwner[p] = -1
	}
	res := sched.Result{Match: m}
	for iter := 0; s.iters == 0 || iter < s.iters; iter++ {
		added := s.iterate(r, m, iter == 0)
		res.Iterations++
		res.Matched += added
		if added == 0 {
			break
		}
	}
	return res
}

// iterate executes one request/grant/accept round. Pointers move only when
// first is true (the slot's first iteration) and only on accepted grants.
func (s *Scheduler) iterate(r *matching.Requests, m matching.Matching, first bool) int {
	n := s.n
	for i := 0; i < n; i++ {
		s.grants[i] = s.grants[i][:0]
	}
	// Grant: each unmatched output scans inputs round-robin from its
	// pointer and grants the first unmatched requester. (The request step
	// is implicit: r.Has(i, j) with input i unmatched is a live request.)
	for j := 0; j < n; j++ {
		if s.outOwner[j] >= 0 {
			continue
		}
		for k := 0; k < n; k++ {
			i := (s.grant[j] + k) % n
			if !s.inMatched[i] && r.Has(i, j) {
				s.grants[i] = append(s.grants[i], j)
				break
			}
		}
	}
	// Accept: each input with grants scans outputs round-robin from its
	// pointer and accepts the first granting output.
	added := 0
	for i := 0; i < n; i++ {
		gr := s.grants[i]
		if len(gr) == 0 {
			continue
		}
		best, bestDist := -1, n
		for _, j := range gr {
			d := (j - s.accpt[i] + n) % n
			if d < bestDist {
				best, bestDist = j, d
			}
		}
		m[i] = best
		s.inMatched[i] = true
		s.outOwner[best] = i
		added++
		if first {
			s.accpt[i] = (best + 1) % n
			s.grant[best] = (i + 1) % n
		}
	}
	return added
}
