package chaos

import (
	"errors"

	"repro/internal/ctrlnet"
)

// maxShrinkRuns bounds the total runs one shrink may spend.
const maxShrinkRuns = 300

// shrinker is one shrink in progress: the smallest schedule found so far,
// its violation, and the runs spent.
type shrinker[S any] struct {
	cur  S
	v    *Violation
	runs int
	run  func(S) (*Violation, error)
}

// try runs a candidate and adopts it if it still fails with the SAME
// invariant. Any other outcome, a different violation included, rejects
// it: the reproducer must reproduce the original bug, not some other one.
func (k *shrinker[S]) try(c S) bool {
	if k.runs >= maxShrinkRuns {
		return false
	}
	k.runs++
	v, err := k.run(c)
	if err != nil || v == nil || v.Invariant != k.v.Invariant {
		return false
	}
	k.cur, k.v = c, v
	return true
}

// shrink is the driver Shrink and SvcShrink share. It runs s, then sweeps
// the passes over the current schedule until a sweep adopts nothing or the
// budget is spent; a pass reports whether it adopted a candidate. It
// returns the minimal schedule, its violation and the runs spent, and
// errors only if s does not fail at all.
func shrink[S any](s S, run func(S) (*Violation, error), sweep func(*shrinker[S]) bool) (S, *Violation, int, error) {
	v, err := run(s)
	if err != nil {
		return s, nil, 1, err
	}
	if v == nil {
		return s, nil, 1, errors.New("chaos: asked to shrink a passing schedule")
	}
	k := &shrinker[S]{cur: s, v: v, runs: 1, run: run}
	for improved := true; improved && k.runs < maxShrinkRuns; {
		improved = sweep(k)
	}
	return k.cur, k.v, k.runs, nil
}

// without returns xs less element i, in a fresh slice.
func without[T any](xs []T, i int) []T {
	return append(append([]T(nil), xs[:i]...), xs[i+1:]...)
}

// halveRate returns f with its i-th baseline rate (drop, dup, reorder,
// corrupt) halved, rates under 1% rounding to zero so the pass
// terminates; false when that rate is already zero.
func halveRate(f ctrlnet.Config, i int) (ctrlnet.Config, bool) {
	p := [...]*float64{&f.DropProb, &f.DupProb, &f.ReorderProb, &f.CorruptProb}[i]
	if *p == 0 {
		return f, false
	}
	if *p /= 2; *p < 0.01 {
		*p = 0
	}
	return f, true
}

// Shrink reduces a failing schedule to a (locally) minimal reproducer. Its
// passes, in order: drop an outage, strip a burst, halve an outage,
// truncate the horizon, halve a fault rate. It returns the minimal
// schedule, its violation, and how many runs were spent.
func Shrink(s Schedule) (Schedule, *Violation, int, error) {
	run := func(c Schedule) (*Violation, error) {
		res, err := Run(c)
		if err != nil {
			return nil, err
		}
		return res.Violation, nil
	}
	return shrink(s, run, func(k *shrinker[Schedule]) bool {
		improved := false
		// 1. Drop whole outages, one at a time.
		for i := 0; i < len(k.cur.Outages); i++ {
			c := k.cur
			c.Outages = without(k.cur.Outages, i)
			if k.try(c) {
				improved = true
				i-- // the slice shifted; retry this index
			}
		}
		// 2. Strip bursts.
		for i := range k.cur.Outages {
			if k.cur.Outages[i].Burst == 0 {
				continue
			}
			c := k.cur
			c.Outages = append([]Outage(nil), k.cur.Outages...)
			c.Outages[i].Burst = 0
			improved = k.try(c) || improved
		}
		// 3. Halve outage durations (floor 40 slots — below that the
		// skeptics smooth the fault over and nothing triggers).
		for i := range k.cur.Outages {
			o := k.cur.Outages[i]
			if o.End-o.Start <= 40 {
				continue
			}
			c := k.cur
			c.Outages = append([]Outage(nil), k.cur.Outages...)
			c.Outages[i].End = o.Start + (o.End-o.Start)/2
			improved = k.try(c) || improved
		}
		// 4. Truncate the horizon to just past the violation (mid-run
		// violations replay identically on a shorter run; end-state
		// violations reject the truncation because the invariant name
		// changes or the failure disappears).
		if k.v.Slot+1 < k.cur.Horizon {
			c := k.cur
			c.Horizon = k.v.Slot + 1
			improved = k.try(c) || improved
		}
		// 5. Halve baseline fault rates.
		for i := 0; i < 4; i++ {
			c := k.cur
			if f, ok := halveRate(c.Faults, i); ok {
				c.Faults = f
				improved = k.try(c) || improved
			}
		}
		return improved
	})
}
