package exp

import (
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
		"E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18",
		"E19", "E20", "E21", "E22", "E23", "E24", "E25", "E26", "E27", "E28",
		"E29", "E30", "E31", "E32", "E33", "E34"}
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("position %d: %s, want %s (sorted order broken)", i, all[i].ID, id)
		}
		if all[i].Title == "" || all[i].Claim == "" || all[i].Run == nil {
			t.Fatalf("%s incompletely registered", id)
		}
	}
	if _, ok := Lookup("E7"); !ok {
		t.Fatal("Lookup failed")
	}
	if _, ok := Lookup("E99"); ok {
		t.Fatal("phantom experiment")
	}
}

// headlines are the promises the loopback-service experiments make about
// the run itself, checked on the tables of every run (label → value of the
// two-column tables): whatever size the run, the fleet recovers completely
// and a disabled tracer is free.
var headlines = map[string]func(t *testing.T, rows map[string]string){
	// E32: the loopback run completed every flow of its 1e5 budget.
	"E32": func(t *testing.T, rows map[string]string) {
		if n, err := strconv.Atoi(rows["flows completed"]); err != nil || n < e32Flows {
			t.Errorf("E32 flows completed = %q, below the promised %d", rows["flows completed"], e32Flows)
		}
	},
	// E33: every live tenant re-attached after the mid-churn kill+restart,
	// no orphan VC survives lease expiry, and the unavailability window
	// rebuilt from merged spans alone lands within 10% of ground truth.
	"E33": func(t *testing.T, rows map[string]string) {
		if live, re := rows["live tenants"], rows["tenants re-attached"]; live == "" || live != re {
			t.Errorf("E33 tenants re-attached (%q) != live tenants (%q)", re, live)
		}
		if orphans := rows["orphan VCs after lease expiry"]; orphans != "0" {
			t.Errorf("E33 orphan VCs after lease expiry = %q, want 0", orphans)
		}
		if e, err := strconv.ParseFloat(rows["trace window error (%)"], 64); err != nil || e < 0 || e > 10 {
			t.Errorf("E33 trace window error = %q, want within 10%% of ground truth", rows["trace window error (%)"])
		}
	},
	// E34: tracing disabled adds exactly 0 allocs to the request hot path.
	"E34": func(t *testing.T, rows map[string]string) {
		if added := rows["added allocs/op (tracing disabled)"]; added != "0.00" {
			t.Errorf("E34 tracing disabled added %q allocs/op, want exactly 0.00", added)
		}
	},
}

// Every experiment must run to completion and produce non-empty tables.
// The assertions on the *values* live in the per-package tests; this is
// the harness-level smoke check that an2bench depends on.
//
// Under -short the two loopback-service experiments that dominate the
// package's run time (E33, E34) churn a quarter of their flows; without
// -short — tier-1 and CI's full run — every experiment runs at the size
// an2bench runs it. Either way the headlines above are checked on the
// tables the run produced.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		// Restored by Cleanup, not defer: the parallel subtests run after
		// this function returns.
		f33, f34 := e33Flows, e34Flows
		t.Cleanup(func() { e33Flows, e34Flows = f33, f34 })
		e33Flows, e34Flows = f33/4, f34/4
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tables, err := e.Run(42)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tb := range tables {
				out := tb.String()
				if !strings.Contains(out, e.ID) {
					t.Errorf("%s: table title %q does not carry the experiment id", e.ID, out[:40])
				}
				if strings.Count(out, "\n") < 3 {
					t.Errorf("%s: table suspiciously empty:\n%s", e.ID, out)
				}
			}
			if check, ok := headlines[e.ID]; ok {
				rows := make(map[string]string)
				for _, tb := range tables {
					for _, row := range tb.Rows() {
						if len(row) >= 2 {
							rows[row[0]] = row[1]
						}
					}
				}
				check(t, rows)
			}
		})
	}
}

// Experiments are deterministic under a fixed seed — including the ones
// that run the reconfiguration protocol (E1, E13, E14, E19 directly; E22
// and E27 through the recovery loop) and E23, whose banyan draws its
// conflict winners in wire order.
func TestQuickExperimentsDeterministic(t *testing.T) {
	for _, id := range []string{"E1", "E3", "E5", "E6", "E7", "E10", "E11", "E13", "E14", "E15", "E16", "E17",
		"E19", "E20", "E21", "E22", "E23", "E27"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		a, err := e.Run(7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.Run(7)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: table counts differ", id)
		}
		for i := range a {
			if a[i].String() != b[i].String() {
				t.Errorf("%s: table %d differs across identical seeds", id, i)
			}
		}
	}
}
