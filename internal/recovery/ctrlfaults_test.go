package recovery

import (
	"reflect"
	"testing"

	"repro/internal/cell"
	"repro/internal/ctrlnet"
	"repro/internal/topology"
)

// The full autonomous loop with the control plane itself degraded: 20%
// loss plus duplication and reordering on every reconfiguration message.
// Recovery must still complete — retransmission absorbs the faults — and
// the control-plane accounting must show the damage.
func TestLoopRecoversWithUnreliableControlPlane(t *testing.T) {
	n, a, b, _, _, _, h1 := testNet(t)
	faults := &ctrlnet.Config{DropProb: 0.20, DupProb: 0.10, ReorderProb: 0.10, Seed: 42}
	loop, err := New(Config{
		Net: n, SlotUS: 10, Skeptic: fastSkeptic, ReconfigRadius: -1,
		CtrlFaults: faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	link, _ := n.Topology().LinkBetween(a, b)
	inj := NewInjector([]FaultEvent{CutLink(100, link.ID)})
	drive(t, n, loop, inj, 1200)

	for _, c := range n.Circuits() {
		if pathUses(c.Path, b) {
			t.Fatalf("circuit %d still routed through b despite the cut", c.VC)
		}
	}
	hs, _ := n.HostStats(h1)
	if hs.CellsReceived == 0 {
		t.Fatal("no cells delivered after recovery")
	}
	s := loop.Stats()
	if s.ReconfigRounds == 0 {
		t.Fatal("no reconfiguration rounds ran")
	}
	if s.CtrlDropped == 0 {
		t.Fatal("20% loss dropped nothing — fault model not wired in")
	}
	if s.CtrlUnconverged != 0 {
		t.Fatalf("%d rounds failed to converge under 20%% loss", s.CtrlUnconverged)
	}
	if s.UnroutedAtEnd != 0 {
		t.Fatalf("%d circuits still stranded", s.UnroutedAtEnd)
	}
}

// The same Loop run twice from the same seed must do byte-for-byte the
// same work — the chaos harness's replay depends on it — whether rounds
// run over the fault-injected channel or (CtrlFaults nil) the loss-free
// one.
func TestLoopDeterministic(t *testing.T) {
	type outcome struct {
		stats     Stats
		incidents []Incident
		paths     map[cell.VCI][]topology.NodeID
	}
	run := func(faults *ctrlnet.Config) outcome {
		n, a, b, _, _, _, _ := testNet(t)
		loop, err := New(Config{
			Net: n, SlotUS: 10, Skeptic: fastSkeptic, ReconfigRadius: -1,
			CtrlFaults: faults,
		})
		if err != nil {
			t.Fatal(err)
		}
		link, _ := n.Topology().LinkBetween(a, b)
		inj := NewInjector([]FaultEvent{CutLink(100, link.ID), HealLink(700, link.ID)})
		drive(t, n, loop, inj, 1500)
		out := outcome{stats: loop.Stats(), incidents: loop.Incidents(), paths: make(map[cell.VCI][]topology.NodeID)}
		for _, c := range n.Circuits() {
			out.paths[c.VC] = c.Path
		}
		return out
	}
	t.Run("loss-free", func(t *testing.T) {
		o1, o2 := run(nil), run(nil)
		if !reflect.DeepEqual(o1, o2) {
			t.Fatalf("identical runs diverged:\n%+v\n%+v", o1, o2)
		}
		if o1.stats.ReconfigRounds == 0 || o1.stats.MaxReconfigUS == 0 {
			t.Fatal("no reconfiguration round ran — determinism test is vacuous")
		}
	})
	t.Run("faulty", func(t *testing.T) {
		faults := func() *ctrlnet.Config {
			return &ctrlnet.Config{DropProb: 0.25, DupProb: 0.15, ReorderProb: 0.1, CorruptProb: 0.05, Seed: 7}
		}
		o1, o2 := run(faults()), run(faults())
		if !reflect.DeepEqual(o1, o2) {
			t.Fatalf("identical runs diverged:\n%+v\n%+v", o1, o2)
		}
		if o1.stats.CtrlRetransmits == 0 && o1.stats.CtrlDropped == 0 {
			t.Fatal("fault model apparently idle — determinism test is vacuous")
		}
	})
}

// A fault-free CtrlFaults config must behave exactly like the loss-free
// channel: same repair outcome, zero fault accounting.
func TestLoopCtrlFaultsZeroIsFaultFree(t *testing.T) {
	n, a, b, _, _, _, _ := testNet(t)
	loop, err := New(Config{
		Net: n, SlotUS: 10, Skeptic: fastSkeptic, ReconfigRadius: -1,
		CtrlFaults: &ctrlnet.Config{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	link, _ := n.Topology().LinkBetween(a, b)
	inj := NewInjector([]FaultEvent{CutLink(100, link.ID)})
	drive(t, n, loop, inj, 800)
	s := loop.Stats()
	if s.CtrlDropped != 0 || s.CtrlCRCRejects != 0 || s.CtrlRetransmits != 0 || s.CtrlRetriggers != 0 {
		t.Fatalf("fault-free channel recorded repair work: %+v", s)
	}
	if s.UnroutedAtEnd != 0 {
		t.Fatalf("%d circuits stranded", s.UnroutedAtEnd)
	}
}

// When the destination is unreachable the repair pass must retry and the
// incident must record how often its reroutes were refused — the counters
// E27's timeline surfaces.
func TestIncidentRetryAndRefusalCounters(t *testing.T) {
	n, _, b, c, d, _, _ := testNet(t)
	loop, err := New(Config{
		Net: n, SlotUS: 10, Skeptic: fastSkeptic, ReconfigRadius: -1,
		RetrySlots: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	bd, _ := n.Topology().LinkBetween(b, d)
	cd, _ := n.Topology().LinkBetween(c, d)
	// Cut both links into d: no believed-live path to the destination
	// exists, so every reroute attempt is refused until c-d heals.
	inj := NewInjector([]FaultEvent{
		CutLink(100, bd.ID), CutLink(100, cd.ID),
		HealLink(1200, cd.ID),
	})
	drive(t, n, loop, inj, 2400)

	s := loop.Stats()
	if s.FailedReroutes == 0 {
		t.Fatal("no failed reroutes despite an unreachable destination")
	}
	var sawRetries, sawRefused bool
	for _, inc := range loop.Incidents() {
		if inc.Kind != "link-down" {
			continue
		}
		if inc.RetryPasses > 0 {
			sawRetries = true
		}
		if inc.RefusedReroutes > 0 {
			sawRefused = true
		}
	}
	if !sawRetries || !sawRefused {
		t.Fatalf("down-incidents carry no retry/refusal counts: retries=%v refused=%v\n%+v",
			sawRetries, sawRefused, loop.Incidents())
	}
	if s.UnroutedAtEnd != 0 {
		t.Fatalf("%d circuits still stranded after c-d healed", s.UnroutedAtEnd)
	}
}
