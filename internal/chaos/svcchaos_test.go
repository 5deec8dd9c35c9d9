package chaos

import (
	"testing"

	"repro/internal/ctrlnet"
	"repro/internal/obs"
	"repro/internal/svc"
)

// Generated schedules — kills, brownouts, vanishing tenants, lossy
// control — must hold every service invariant: that is the tentpole
// claim (the service survives what the network survives).
func TestSvcChaosGeneratedSchedulesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("service chaos sweep is long")
	}
	for seed := int64(1); seed <= 6; seed++ {
		s := GenerateSvc(seed)
		res, err := RunSvc(s)
		if err != nil {
			t.Fatalf("seed %d: harness: %v", seed, err)
		}
		if res.Violation != nil {
			t.Fatalf("seed %d: %v\nreproducer:\n%s", seed, res.Violation, s)
		}
		if res.Restarts == 0 {
			t.Fatalf("seed %d: schedule exercised no restart", seed)
		}
		if res.Grants == 0 {
			t.Fatalf("seed %d: no circuits ever granted — harness inert", seed)
		}
	}
}

// A kill mid-churn must force observable re-attaches: tenants notice the
// new incarnation via stale refusals and rebuild their sessions.
func TestSvcChaosKillForcesReattach(t *testing.T) {
	s := SvcSchedule{
		Seed: 3, HorizonMS: 2000, GraceMS: 600, Tenants: 6,
		LeaseDurMS: 400, OrphanGraceMS: 400,
		Outages: []SvcOutage{{Kill: true, StartMS: 700, EndMS: 900}},
	}
	res, err := RunSvc(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("%v\nreproducer:\n%s", res.Violation, s)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", res.Restarts)
	}
	if res.Reattaches == 0 {
		t.Fatal("no tenant re-attached across the restart")
	}
	if res.Byes == 0 {
		t.Fatal("no tenant completed bye")
	}
}

// With lease GC disabled (the regression arm), a tenant that vanishes
// without bye leaks its circuits forever: the no-orphan-vc invariant
// must fire, and SvcShrink must keep the failure while simplifying.
func TestSvcChaosCatchesLeakWithoutLeaseGC(t *testing.T) {
	s := SvcSchedule{
		Seed: 11, HorizonMS: 1500, GraceMS: 500, Tenants: 5, Vanish: 2,
		LeaseDurMS: 400, OrphanGraceMS: 400,
		UnsafeNoLeaseGC: true,
		Outages:         []SvcOutage{{Kill: true, StartMS: 500, EndMS: 650}},
	}
	res, err := RunSvc(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("no-lease-GC run passed: vanished tenants leaked nothing?")
	}
	if res.Violation.Invariant != "no-orphan-vc" {
		t.Fatalf("violation = %v, want no-orphan-vc", res.Violation)
	}

	min, v, runs, err := SvcShrink(s)
	if err != nil {
		t.Fatal(err)
	}
	if v == nil || v.Invariant != "no-orphan-vc" {
		t.Fatalf("shrink lost the violation: %v", v)
	}
	if runs < 2 {
		t.Fatalf("shrink spent %d runs — tried nothing", runs)
	}
	// The reproducer must replay deterministically from its struct alone.
	again, err := RunSvc(min)
	if err != nil {
		t.Fatal(err)
	}
	if again.Violation == nil || again.Violation.Invariant != "no-orphan-vc" {
		t.Fatalf("minimal reproducer did not replay: %v\n%s", again.Violation, min)
	}
	t.Logf("shrunk in %d runs to:\n%s", runs, min)
}

// The same schedule with lease GC on must pass: expired sessions are
// collected, so vanished tenants leak nothing.
func TestSvcChaosLeaseGCCollectsVanished(t *testing.T) {
	s := SvcSchedule{
		Seed: 11, HorizonMS: 1500, GraceMS: 500, Tenants: 5, Vanish: 2,
		LeaseDurMS: 400, OrphanGraceMS: 400,
		Outages: []SvcOutage{{Kill: true, StartMS: 500, EndMS: 650}},
	}
	res, err := RunSvc(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("%v\nreproducer:\n%s", res.Violation, s)
	}
	// Vanished tenants leave either live sessions whose leases expire
	// (vanished after the restart) or circuits the new incarnation adopts
	// and reclaims (vanished before it) — some GC must have happened.
	if res.FinalStats.LeaseExpired+res.FinalStats.OrphansReclaimed == 0 {
		t.Fatal("nothing was garbage-collected — vanish arm inert")
	}
}

// The flight recorder rides through a kill+restart: the ring is shared
// across incarnations, every scripted request carries a deterministic
// trace id, and after the drill the recorder must hold both stale-session
// refusal spans (from the restart) and ordinary handler spans, each
// attributable to a tenant trace.
func TestSvcChaosRecorderSurvivesRestart(t *testing.T) {
	// The kill lands late in the horizon so the restart's stale refusals
	// are still in the ring at the end — a flight recorder holds RECENT
	// history, and this drill reads it the way an operator would: right
	// after the incident.
	s := SvcSchedule{
		Seed: 3, HorizonMS: 2000, GraceMS: 600, Tenants: 6,
		LeaseDurMS: 400, OrphanGraceMS: 400,
		Outages: []SvcOutage{{Kill: true, StartMS: 1600, EndMS: 1800}},
	}
	res, err := RunSvc(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("%v\nreproducer:\n%s", res.Violation, s)
	}
	if len(res.Recorder) == 0 {
		t.Fatal("flight recorder empty after a traced chaos run")
	}
	var handles, staleRefusals, badTrace int
	for _, ev := range res.Recorder {
		if ev.Trace == 0 {
			badTrace++
			continue
		}
		// Deterministic stamping: trace = tenant<<32 | nonce, and the
		// server tags spans with the tenant it served.
		tenant := ev.Trace >> 32
		if tenant < 1 || tenant > uint64(s.Tenants) {
			t.Fatalf("span %v carries trace %#x outside the tenant range", ev.Kind, ev.Trace)
		}
		switch ev.Kind {
		case obs.KindSvcHandle:
			handles++
		case obs.KindSvcRefuse:
			if ev.Seq == uint64(svc.RefuseStaleSession) {
				staleRefusals++
			}
		}
	}
	if badTrace > 0 {
		t.Fatalf("%d recorder spans carry no trace id", badTrace)
	}
	if handles == 0 {
		t.Fatal("recorder holds no handler spans")
	}
	if staleRefusals == 0 {
		t.Fatal("recorder holds no stale-session refusals despite a kill+restart")
	}
}

// Determinism: equal schedules produce identical results, down to the
// tenant-observed counters and the flight recorder's every span (the
// server's one clock is the virtual one). Without this, shrinking is
// meaningless. The schedule is what GenerateSvc draws for seed 5 over a
// 1200 ms churn phase and a 500 ms wind-down, short enough to run twice.
func TestSvcChaosDeterministic(t *testing.T) {
	s := SvcSchedule{Seed: 5, HorizonMS: 1200, GraceMS: 500, Vanish: 1,
		Faults:  ctrlnet.Config{DropProb: 0.10, DupProb: 0.05, ReorderProb: 0.05},
		Outages: []SvcOutage{{Kill: true, StartMS: 501, EndMS: 608}}}
	a, err := RunSvc(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSvc(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Grants != b.Grants || a.Reattaches != b.Reattaches || a.Byes != b.Byes ||
		a.Restarts != b.Restarts {
		t.Fatalf("same schedule diverged: %+v vs %+v", a, b)
	}
	if (a.Violation == nil) != (b.Violation == nil) {
		t.Fatalf("violation nondeterminism: %v vs %v", a.Violation, b.Violation)
	}
	if a.FinalStats.Requests != b.FinalStats.Requests ||
		a.FinalStats.LeaseExpired != b.FinalStats.LeaseExpired {
		t.Fatalf("server stats diverged: %+v vs %+v", a.FinalStats, b.FinalStats)
	}
	if len(a.Recorder) == 0 || len(a.Recorder) != len(b.Recorder) {
		t.Fatalf("recorders hold %d and %d spans", len(a.Recorder), len(b.Recorder))
	}
	for i := range a.Recorder {
		if a.Recorder[i] != b.Recorder[i] {
			t.Fatalf("recorder span %d diverged: %+v vs %+v", i, a.Recorder[i], b.Recorder[i])
		}
	}
}
