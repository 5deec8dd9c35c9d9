// Package exp implements the paper-reproduction experiments (E1–E34 in
// DESIGN.md): each function regenerates one of the paper's figures, worked
// examples, or quantitative claims as a metrics.Table, so the experiment
// output reads like the rows a paper's evaluation section reports.
// cmd/an2bench runs them.
package exp

import (
	"fmt"
	"sort"
	"sync/atomic"

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

// Lookup finds an experiment by ID.
func Lookup(id string) (*Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// reportedSlots accumulates the simulated-slot count experiments declare
// via ReportSlots since the last TakeSlots. an2bench runs one experiment at
// a time; the tests run them in parallel, hence the atomic.
var reportedSlots atomic.Int64

// ReportSlots adds n simulated slots to the current experiment's tally.
// Experiments that drive a simnet.Network (directly or through fabric /
// workload) call it so an2bench can report slots/sec per experiment; an
// experiment that never reports simply shows no rate.
func ReportSlots(n int64) {
	if n > 0 {
		reportedSlots.Add(n)
	}
}

// TakeSlots returns the slots reported since the last call and resets the
// tally. an2bench calls it once before each experiment (discarding strays)
// and once after (the experiment's count).
func TakeSlots() int64 { return reportedSlots.Swap(0) }

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
