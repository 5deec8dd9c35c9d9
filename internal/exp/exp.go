// Package exp implements the paper-reproduction experiments (E1–E34 in
// DESIGN.md): each function regenerates one of the paper's figures, worked
// examples, or quantitative claims as a metrics.Table, so the experiment
// output reads like the rows a paper's evaluation section reports.
// cmd/an2bench runs them.
package exp

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"

	"repro/internal/metrics"
)

// Experiment is one reproducible experiment.
type Experiment struct {
	// ID is the DESIGN.md experiment id, e.g. "E2".
	ID string
	// Title says what is reproduced.
	Title string
	// Claim is the paper's quantitative claim, quoted or paraphrased.
	Claim string
	// Run executes the experiment (with the given seed where
	// randomness is involved) and renders its table(s).
	Run func(seed int64) ([]*metrics.Table, error)
	// Quick, when true, means the experiment runs in well under a
	// second; heavier experiments are skipped by an2bench -quick.
	Quick bool
}

// registry holds all experiments, keyed by ID.
var registry = map[string]*Experiment{}

func register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("exp: duplicate experiment %s", e.ID))
	}
	registry[e.ID] = e
}

// All returns the experiments sorted by ID (E1, E2, ... E26).
func All() []*Experiment {
	out := make([]*Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		return idOrder(out[i].ID) < idOrder(out[j].ID)
	})
	return out
}

// idOrder sorts E2 before E10.
func idOrder(id string) int {
	n := 0
	for _, r := range id {
		if r >= '0' && r <= '9' {
			n = n*10 + int(r-'0')
		}
	}
	return n
}

// allocsOf runs f and returns the heap allocations and bytes it made.
// It measures like testing.AllocsPerRun: one P and the collector parked,
// so the MemStats deltas count f and not concurrent GC workers. The
// runtime still adds an allocation now and then (under 1 % of runs of
// E29's probes), never removes one, so callers take the least of several
// runs.
func allocsOf(f func()) (mallocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}
