package chaos

import (
	"reflect"
	"testing"
)

// The core promise: with the protocol intact, every generated schedule —
// link cuts, crashes, control bursts on top of 20% loss + dup + reorder —
// passes every invariant. These seeds are the fixed regression suite.
func TestChaosSuitePasses(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		s := Generate(seed)
		res, err := Run(s)
		if err != nil {
			t.Fatalf("seed %d: harness error: %v", seed, err)
		}
		if res.Violation != nil {
			t.Fatalf("seed %d: invariant broken: %v\n%s", seed, res.Violation, s)
		}
		if res.Stats.ReconfigRounds == 0 {
			t.Fatalf("seed %d: no reconfiguration rounds ran — schedule was vacuous\n%s", seed, s)
		}
		if res.Stats.CtrlDropped == 0 {
			t.Fatalf("seed %d: control channel dropped nothing at 20%% loss\n%s", seed, s)
		}
	}
}

// The same schedule must replay to the same world, byte for byte: every
// reproducer the shrinker prints depends on this.
func TestChaosRunDeterministic(t *testing.T) {
	s := Generate(42)
	r1, err1 := Run(s)
	r2, err2 := Run(s)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(r1.Stats, r2.Stats) {
		t.Fatalf("stats diverged:\n%+v\n%+v", r1.Stats, r2.Stats)
	}
	if r1.Snapshot != r2.Snapshot {
		t.Fatalf("snapshots diverged:\n%+v\n%+v", r1.Snapshot, r2.Snapshot)
	}
}

// Generate is a pure function of its seed.
func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(7), Generate(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules:\n%s\n%s", a, b)
	}
	if len(a.Outages) == 0 {
		t.Fatal("no outages generated")
	}
	for _, o := range a.Outages {
		if o.Start < 0 || o.End > a.Horizon-a.Grace || o.End <= o.Start {
			t.Fatalf("outage outside [0, horizon-grace): %s", o)
		}
	}
}

// The harness's reason to exist: reintroduce the duplicate-receipt bug
// (Hardening.UnsafeNoDupGuard) and the suite must catch it — orphaned
// subtrees force watchdog re-triggers, busting the zero budget — then
// shrink the failure to a minimal schedule that still reproduces it
// deterministically, while the intact protocol passes the very same
// shrunk schedule.
func TestChaosCatchesDupGuardRemoval(t *testing.T) {
	if testing.Short() {
		t.Skip("shrinking spends many runs")
	}
	var failing *Schedule
	for seed := int64(1); seed <= 30; seed++ {
		s := Generate(seed)
		s.Hardening.UnsafeNoDupGuard = true
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			failing = &s
			break
		}
	}
	if failing == nil {
		t.Fatal("30 seeds never caught the reintroduced dup-guard bug")
	}

	min, v, runs, err := Shrink(*failing)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("shrunk after %d runs to:\n%s\nviolation: %v", runs, min, v)
	if len(min.Outages) > len(failing.Outages) || min.Horizon > failing.Horizon {
		t.Fatalf("shrinking grew the schedule: %s", min)
	}

	// The reproducer replays: same violation, twice.
	for i := 0; i < 2; i++ {
		res, err := Run(min)
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation == nil || res.Violation.Invariant != v.Invariant || res.Violation.Slot != v.Slot {
			t.Fatalf("replay %d diverged: got %v, want %v", i, res.Violation, v)
		}
	}

	// The intact protocol passes the same schedule: the bug, not the
	// chaos, is what the reproducer isolates.
	fixed := min
	fixed.Hardening.UnsafeNoDupGuard = false
	res, err := Run(fixed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("guard-on run of the shrunk schedule also fails: %v\n%s", res.Violation, fixed)
	}
}

// Shrink is pinned on one fixed failing schedule: the reintroduced
// dup-guard bug on seed 1. The minimal reproducer and the runs spent
// reaching it were recorded before Shrink and SvcShrink shared one driver;
// a driver that tried candidates in another order, adopted them by another
// rule or spent its budget differently would move one or the other.
func TestShrinkPinnedSchedule(t *testing.T) {
	s := Generate(1)
	s.Hardening.UnsafeNoDupGuard = true
	min, v, runs, err := Shrink(s)
	if err != nil {
		t.Fatal(err)
	}
	want := s
	want.Horizon = 1171
	want.Faults.DropProb, want.Faults.DupProb, want.Faults.ReorderProb = 0.1, 0.025, 0.0125
	want.Outages = []Outage{{Switch: true, Link: -1, Node: 1, Start: 1169, End: 1195}}
	if runs != 28 || !reflect.DeepEqual(min, want) {
		t.Fatalf("shrunk in %d runs to\n%s\nwant 28 runs to\n%s", runs, min, want)
	}
	if v.Invariant != "watchdog-budget" || v.Slot != 1170 {
		t.Fatalf("violation %v, want watchdog-budget at slot 1170", v)
	}
}

func TestShrinkRejectsPassingSchedule(t *testing.T) {
	s := Generate(1)
	if _, _, _, err := Shrink(s); err == nil {
		t.Fatal("Shrink accepted a schedule that does not fail")
	}
}
