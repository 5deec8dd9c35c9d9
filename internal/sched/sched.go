// Package sched defines the pluggable switch-scheduler contract: given the
// slot's request matrix (which inputs hold cells for which outputs), a
// Scheduler produces a conflict-free matching for the crossbar. Any
// per-slot state — PIM's random stream, iSLIP's round-robin pointers — is
// carried inside the Scheduler across calls, so a Scheduler instance
// belongs to exactly one switch.
//
// The package also provides adapters for the matchers that predate the
// interface: AN2's parallel iterative matching (package pim, the default),
// deterministic maximum matching (Hopcroft–Karp, the starvation-prone
// baseline of experiment E5), and greedy maximal matching. iSLIP lives in
// package islip; the crosspoint-buffered switch, which dissolves the
// central matching step entirely, lives in package cbsched.
package sched

import (
	"math/rand"

	"repro/internal/matching"
	"repro/internal/pim"
)

// Result is one slot's scheduling decision.
type Result struct {
	// Match is the conflict-free matching (input -> output, -1 if
	// unmatched).
	Match matching.Matching
	// Iterations is the number of request/grant/accept (or equivalent)
	// rounds the scheduler ran this slot; 1 for single-shot schedulers.
	Iterations int
	// Matched is the number of input/output pairs in Match — the arbiter
	// outcome the observability layer exports per slot, so matching quality
	// is visible live without re-scanning Match.
	Matched int
}

// Scheduler computes one matching per cell slot. Implementations are
// deterministic under their construction seed and are not safe for
// concurrent use; the switch that owns the Scheduler calls it once per
// slot.
type Scheduler interface {
	// Name identifies the scheduler in experiment tables.
	Name() string
	// Schedule returns a conflict-free matching over the request matrix.
	// The returned Match must be legal for r (matching.Matching.Legal).
	// Implementations may back Result.Match with scratch reused across
	// calls, so the result is only guaranteed valid until the next
	// Schedule call on the same instance; callers that retain a matching
	// across slots must copy it.
	Schedule(r *matching.Requests) Result
}

// PIM adapts the sequential parallel-iterative-matching engine to the
// Scheduler interface. It is the switch default and reproduces the paper's
// behaviour exactly: constructing it with the switch seed and budget
// yields the same random stream, and therefore the same matchings, as the
// pre-interface switch.
type PIM struct {
	eng   *pim.Sequential
	iters int
}

// NewPIM creates a PIM scheduler seeded with seed. iters is the per-slot
// iteration budget; <= 0 runs every slot to quiescence (maximal matching).
func NewPIM(seed int64, iters int) *PIM {
	if iters < 0 {
		iters = 0
	}
	return &PIM{eng: pim.NewSequential(rand.New(rand.NewSource(seed))), iters: iters}
}

// Name implements Scheduler.
func (p *PIM) Name() string { return "pim" }

// Schedule implements Scheduler.
func (p *PIM) Schedule(r *matching.Requests) Result {
	res := p.eng.Match(r, p.iters)
	matched := 0
	for _, added := range res.NewMatches {
		matched += added
	}
	return Result{Match: res.Match, Iterations: res.Iterations, Matched: matched}
}

// Maximum is the deterministic maximum-matching scheduler (Hopcroft–Karp).
// It maximizes per-slot matched pairs but, being deterministic, starves
// flows under the paper's §3 adversarial pattern — experiment E5, and the
// fairness half of E25.
type Maximum struct{}

// Name implements Scheduler.
func (Maximum) Name() string { return "maximum" }

// Schedule implements Scheduler.
func (Maximum) Schedule(r *matching.Requests) Result {
	m := matching.HopcroftKarp(r)
	return Result{Match: m, Iterations: 1, Matched: m.Size()}
}

// Greedy is the fixed-scan-order maximal-matching scheduler. Like Maximum
// it is deterministic and biased toward low-numbered ports; it exists as
// the simplest baseline.
type Greedy struct{}

// Name implements Scheduler.
func (Greedy) Name() string { return "greedy" }

// Schedule implements Scheduler.
func (Greedy) Schedule(r *matching.Requests) Result {
	m := matching.GreedyMaximal(r)
	return Result{Match: m, Iterations: 1, Matched: m.Size()}
}
