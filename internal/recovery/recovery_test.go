package recovery

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cell"
	"repro/internal/monitor"
	"repro/internal/simnet"
	"repro/internal/switchnode"
	"repro/internal/topology"
)

// testNet builds the diamond h0 - a - {b | c} - d - h1 with one
// best-effort circuit (vc 1) and one guaranteed circuit (vc 9), both on
// the upper branch through b.
func testNet(t *testing.T) (n *simnet.Network, a, b, c, d, h0, h1 topology.NodeID) {
	t.Helper()
	g := topology.New()
	a = g.AddSwitch("a")
	b = g.AddSwitch("b")
	c = g.AddSwitch("c")
	d = g.AddSwitch("d")
	for _, pr := range [][2]topology.NodeID{{a, b}, {a, c}, {b, d}, {c, d}} {
		if _, err := g.Connect(pr[0], pr[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	h0 = g.AddHost("h0")
	h1 = g.AddHost("h1")
	if _, err := g.Connect(h0, a, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(h1, d, 1); err != nil {
		t.Fatal(err)
	}
	net, err := simnet.New(simnet.Config{
		Topology:      g,
		Switch:        switchnode.Config{N: 4, FrameSlots: 16, Discipline: switchnode.DisciplinePerVC, Seed: 1},
		IngressWindow: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	upper := []topology.NodeID{h0, a, b, d, h1}
	if _, err := net.OpenBestEffort(1, upper); err != nil {
		t.Fatal(err)
	}
	if _, err := net.OpenGuaranteed(9, upper, 2); err != nil {
		t.Fatal(err)
	}
	return net, a, b, c, d, h0, h1
}

// fastSkeptic is a skeptic tuned to slot time: with SlotUS=10 it believes
// a death after 2 failed pings and a recovery after 30 error-free slots.
var fastSkeptic = monitor.Config{
	FailThreshold: 2,
	BaseWaitUS:    300,
	MaxWaitUS:     5_000,
	DecayUS:       10_000,
	Skeptical:     true,
}

// drive runs the closed loop for the given slots: injector applies the
// declared hardware history, the recovery loop ticks, traffic flows, the
// network steps. Nothing else touches the fault or reroute APIs.
func drive(t *testing.T, n *simnet.Network, loop *Loop, inj *Injector, slots int64) {
	t.Helper()
	for i := int64(0); i < slots; i++ {
		if inj != nil {
			inj.Apply(n)
		}
		loop.Tick()
		slot := n.Slot()
		if slot%2 == 0 {
			if err := n.Send(1, [cell.PayloadSize]byte{1, byte(slot)}); err != nil {
				t.Fatal(err)
			}
		}
		if slot%8 == 0 {
			if err := n.Send(9, [cell.PayloadSize]byte{9, byte(slot)}); err != nil {
				t.Fatal(err)
			}
		}
		n.Step()
	}
}

func pathUses(path []topology.NodeID, n topology.NodeID) bool {
	for _, p := range path {
		if p == n {
			return true
		}
	}
	return false
}

func TestLinkCutDetectReconfigureReroute(t *testing.T) {
	n, a, b, _, _, _, h1 := testNet(t)
	loop, err := New(Config{Net: n, SlotUS: 10, Skeptic: fastSkeptic, ReconfigRadius: -1})
	if err != nil {
		t.Fatal(err)
	}
	link, _ := n.Topology().LinkBetween(a, b)
	inj := NewInjector([]FaultEvent{CutLink(100, link.ID)})
	drive(t, n, loop, inj, 600)

	if !inj.Done() {
		t.Fatal("injector did not fire")
	}
	if !loop.BelievesLinkDead(link.ID) {
		t.Fatal("loop never believed the cut link dead")
	}
	var down *Incident
	for _, inc := range loop.Incidents() {
		if inc.Kind == "link-down" && inc.Link == link.ID {
			down = &inc
			break
		}
	}
	if down == nil {
		t.Fatal("no link-down incident recorded")
	}
	if down.HardwareSlot != 100 {
		t.Fatalf("hardware slot = %d, want 100", down.HardwareSlot)
	}
	if lag := down.DetectionLagSlots(); lag <= 0 || lag > 20 {
		t.Fatalf("detection lag = %d slots, want small positive", lag)
	}
	if out := down.OutageSlots(); out < 0 {
		t.Fatal("outage window never closed")
	} else if out > 200 {
		t.Fatalf("outage window = %d slots, implausibly long", out)
	}
	// Both circuits must have been moved off the dead link by the loop.
	for _, c := range n.Circuits() {
		if pathUses(c.Path, b) {
			t.Fatalf("vc %d still routed through the dead branch", c.VC)
		}
	}
	st := loop.Stats()
	if st.Reroutes < 2 {
		t.Fatalf("loop rerouted %d circuits, want 2", st.Reroutes)
	}
	if st.ReconfigRounds == 0 {
		t.Fatal("no reconfiguration round ran")
	}
	if st.Resyncs == 0 {
		t.Fatal("no ingress resync issued for the best-effort circuit")
	}
	if !loop.Quiescent() {
		t.Fatal("loop not quiescent after recovery")
	}
	// Service continued: cells delivered after the fault slot.
	hs, _ := n.HostStats(h1)
	if hs.CellsReceived < 200 {
		t.Fatalf("only %d cells delivered across the fault", hs.CellsReceived)
	}
	if snap := n.Snapshot(); !snap.Conserved() {
		t.Fatalf("conservation broken: %+v", snap)
	}
}

func TestSwitchCrashAndReboot(t *testing.T) {
	n, _, b, c, _, _, h1 := testNet(t)
	loop, err := New(Config{Net: n, SlotUS: 10, Skeptic: fastSkeptic, ReconfigRadius: 2})
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector([]FaultEvent{
		CrashSwitch(100, b),
		RebootSwitch(500, b),
	})
	drive(t, n, loop, inj, 1000)

	var sawDown, sawUp bool
	for _, inc := range loop.Incidents() {
		if inc.Node == b && inc.Kind == "switch-down" {
			sawDown = true
			if inc.HardwareSlot != 100 {
				t.Fatalf("switch-down hardware slot = %d, want 100", inc.HardwareSlot)
			}
			if out := inc.OutageSlots(); out < 0 || out > 300 {
				t.Fatalf("switch-down outage = %d slots", out)
			}
		}
		if inc.Node == b && inc.Kind == "switch-up" {
			sawUp = true
		}
	}
	if !sawDown {
		t.Fatal("switch crash never believed")
	}
	if !sawUp {
		t.Fatal("switch reboot never believed")
	}
	if loop.BelievesSwitchDead(b) {
		t.Fatal("loop still believes rebooted switch dead")
	}
	// Circuits settled on the surviving branch through c.
	for _, circ := range n.Circuits() {
		if !pathUses(circ.Path, c) {
			t.Fatalf("vc %d not on surviving branch: %v", circ.VC, circ.Path)
		}
	}
	if !loop.Quiescent() {
		t.Fatal("loop not quiescent")
	}
	hs, _ := n.HostStats(h1)
	if hs.CellsReceived < 300 {
		t.Fatalf("only %d cells delivered across crash and reboot", hs.CellsReceived)
	}
	if snap := n.Snapshot(); !snap.Conserved() {
		t.Fatalf("conservation broken: %+v", snap)
	}
}

// TestFlappingLinkContained checks the skeptic integration: a flapping
// link produces far fewer believed transitions than hardware transitions,
// because escalating proving periods keep it believed-dead through the
// flutter (§2's skeptic rationale).
func TestFlappingLinkContained(t *testing.T) {
	n, a, b, _, _, _, _ := testNet(t)
	loop, err := New(Config{Net: n, SlotUS: 10, Skeptic: fastSkeptic, ReconfigRadius: -1})
	if err != nil {
		t.Fatal(err)
	}
	link, _ := n.Topology().LinkBetween(a, b)
	// 12 hardware transitions: die/revive every 20 slots from slot 100.
	inj := NewInjector(Flap(link.ID, 100, 20, 6))
	drive(t, n, loop, inj, 1200)

	believed := 0
	for _, inc := range loop.Incidents() {
		if inc.Link == link.ID {
			believed++
		}
	}
	if believed == 0 {
		t.Fatal("flapping link never believed dead at all")
	}
	if believed >= 12 {
		t.Fatalf("skeptic passed through all %d hardware transitions", believed)
	}
	// The flap heals for good at slot ~320; eventually the link is
	// believed working again and the loop settles.
	if loop.BelievesLinkDead(link.ID) {
		t.Fatal("healed link still believed dead after proving period")
	}
	if !loop.Quiescent() {
		t.Fatal("loop not quiescent after flap ended")
	}
	if snap := n.Snapshot(); !snap.Conserved() {
		t.Fatalf("conservation broken: %+v", snap)
	}
}

func TestInjectorOrderAndBounds(t *testing.T) {
	n, a, b, _, _, _, _ := testNet(t)
	link, _ := n.Topology().LinkBetween(a, b)
	inj := NewInjector([]FaultEvent{
		HealLink(50, link.ID),
		CutLink(10, link.ID),
	})
	if inj.Remaining() != 2 {
		t.Fatalf("remaining = %d", inj.Remaining())
	}
	if fired := inj.Apply(n); fired != 0 {
		t.Fatalf("fired %d events at slot 0", fired)
	}
	n.Run(10)
	if fired := inj.Apply(n); fired != 1 {
		t.Fatalf("fired %d events at slot 10, want 1 (the cut)", fired)
	}
	if n.ProbeLink(link.ID) {
		t.Fatal("link alive after scheduled cut")
	}
	n.Run(40)
	if fired := inj.Apply(n); fired != 1 {
		t.Fatalf("fired %d events at slot 50, want 1 (the heal)", fired)
	}
	if !n.ProbeLink(link.ID) {
		t.Fatal("link dead after scheduled heal")
	}
	if !inj.Done() {
		t.Fatal("injector not done")
	}
}

// lifeSkeptic is the monitor E22 uses, tuned to a 1 ms ping: dead after 3
// failed pings, a 10 ms base proving period, escalating only if skeptical.
func lifeSkeptic(skeptical bool) monitor.Config {
	return monitor.Config{FailThreshold: 3, BaseWaitUS: 10_000, DecayUS: 600_000_000, Skeptical: skeptical}
}

// linkLife runs the loop over an idle network for the given slots at one
// slot per 1 ms ping period — long fault histories in few slots — and
// returns it with the view currency: the fraction of slots in which the
// believed state of every link matched the hardware's answer.
func linkLife(t *testing.T, g *topology.Graph, faults []FaultEvent, skeptical bool, slots int64) (*Loop, float64) {
	t.Helper()
	n, err := simnet.New(simnet.Config{Topology: g, Switch: switchnode.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	loop, err := New(Config{Net: n, SlotUS: 1000, Skeptic: lifeSkeptic(skeptical), ReconfigRadius: -1})
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(faults)
	links := g.Links()
	current := int64(0)
	for n.Slot() < slots {
		inj.Apply(n)
		loop.Tick()
		ok := true
		for _, l := range links {
			if loop.BelievesLinkDead(l.ID) == n.ProbeLink(l.ID) {
				ok = false
			}
		}
		if ok {
			current++
		}
		n.Step()
	}
	return loop, float64(current) / float64(slots)
}

func ring(t *testing.T, n int) *topology.Graph {
	t.Helper()
	g, err := topology.Ring(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// flapper is a link that goes down for 50 slots every 350, from..to.
func flapper(link topology.LinkID, from, to int64) []FaultEvent {
	var evs []FaultEvent
	for at := from; at < to; at += 350 {
		evs = append(evs, CutLink(at, link), HealLink(at+50, link))
	}
	return evs
}

func TestHealthyNetworkNeverReconfigures(t *testing.T) {
	loop, currency := linkLife(t, ring(t, 6), nil, true, 10_000)
	if st := loop.Stats(); st.ReconfigRounds != 0 || st.Detections != 0 {
		t.Fatalf("healthy network: %d rounds, %d detections", st.ReconfigRounds, st.Detections)
	}
	if currency != 1.0 {
		t.Fatalf("view currency %.4f, want 1.0", currency)
	}
}

func TestCleanCutDetectedOnce(t *testing.T) {
	loop, currency := linkLife(t, ring(t, 6), []FaultEvent{CutLink(1_000, 0)}, true, 10_000)
	incs := loop.Incidents()
	if st := loop.Stats(); st.ReconfigRounds != 1 || len(incs) != 1 {
		t.Fatalf("clean cut caused %d rounds, %d incidents, want 1 each", st.ReconfigRounds, len(incs))
	}
	if inc := incs[0]; inc.Kind != "link-down" || inc.Link != 0 || inc.HardwareSlot != 1_000 {
		t.Fatalf("incident %+v", inc)
	}
	// Detection lag ≈ FailThreshold pings.
	if lag := incs[0].DetectionLagSlots(); lag < 2 || lag > 10 {
		t.Fatalf("detection lag %d ms, want a few ping intervals", lag)
	}
	// View current except during the detection window.
	if currency < 0.999 {
		t.Fatalf("view currency %.4f", currency)
	}
}

func TestCutAndRecoveryRoundTrip(t *testing.T) {
	loop, _ := linkLife(t, ring(t, 6), []FaultEvent{CutLink(1_000, 2), HealLink(3_000, 2)}, true, 10_000)
	incs := loop.Incidents()
	if st := loop.Stats(); st.ReconfigRounds != 2 || len(incs) != 2 {
		t.Fatalf("%d rounds, %d incidents, want 2 (down, up)", st.ReconfigRounds, len(incs))
	}
	if incs[0].Kind != "link-down" || incs[1].Kind != "link-up" {
		t.Fatalf("incidents = %+v", incs)
	}
	// Recovery lag includes the proving period (10 ms).
	if lag := incs[1].DetectionLagSlots(); incs[1].HardwareSlot != 3_000 || lag < 10 {
		t.Fatalf("recovery believed %d ms after slot %d; proving period is 10 ms", lag, incs[1].HardwareSlot)
	}
	// Epochs advance across reconfigurations.
	if loop.epoch < 2 {
		t.Fatalf("epoch = %d, want >= 2", loop.epoch)
	}
	if loop.BelievesLinkDead(2) {
		t.Fatal("healed link still believed dead")
	}
}

// The headline comparison: a flapping link inflicts far fewer
// reconfigurations with the skeptic than without, and total time spent
// reconfiguring shrinks accordingly.
func TestSkepticReducesReconfigurationLoad(t *testing.T) {
	faults := flapper(1, 500, 9_500)
	naiveLoop, _ := linkLife(t, ring(t, 6), faults, false, 10_000)
	skepticLoop, _ := linkLife(t, ring(t, 6), faults, true, 10_000)
	naive, skeptic := naiveLoop.Stats(), skepticLoop.Stats()
	if naive.ReconfigRounds < 3*skeptic.ReconfigRounds {
		t.Fatalf("skeptic did not help: naive %d vs skeptic %d", naive.ReconfigRounds, skeptic.ReconfigRounds)
	}
	if skeptic.ReconfigRounds == 0 {
		t.Fatal("skeptic must still report the first failure")
	}
	if naive.ReconfigUS <= skeptic.ReconfigUS {
		t.Fatalf("total reconfiguration time: naive %d <= skeptic %d", naive.ReconfigUS, skeptic.ReconfigUS)
	}
	if naive.MaxReconfigUS > naive.ReconfigUS {
		t.Fatalf("slowest round %d µs exceeds the sum %d µs", naive.MaxReconfigUS, naive.ReconfigUS)
	}
}

func TestLinkLifeDeterministic(t *testing.T) {
	faults := append([]FaultEvent{CutLink(2_000, 0)}, flapper(3, 3_000, 6_000)...)
	a, ca := linkLife(t, ring(t, 6), faults, true, 10_000)
	b, cb := linkLife(t, ring(t, 6), faults, true, 10_000)
	if !reflect.DeepEqual(a.Incidents(), b.Incidents()) || a.Stats() != b.Stats() || ca != cb {
		t.Fatal("identical runs differ")
	}
}

// Faults on unrelated links of an irregular graph are handled one round
// each.
func TestManyLinksIndependent(t *testing.T) {
	g, err := topology.RandomConnected(rand.New(rand.NewSource(4)), 12, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	links := g.Links()
	loop, _ := linkLife(t, g, []FaultEvent{
		CutLink(1_000, links[0].ID),
		CutLink(2_000, links[3].ID),
		HealLink(5_000, links[0].ID),
	}, true, 8_000)
	if st := loop.Stats(); st.ReconfigRounds != 3 {
		t.Fatalf("reconfigurations = %d, want 3", st.ReconfigRounds)
	}
}

// TestE22SchedulePinned pins what E22 prints: 30 s on an 8-switch ring,
// link 0 cut from 2 s to 20 s, link 3 flapping from 5 s to 15 s. The
// naive monitor chases every flap (60 rounds) and stays current; the
// skeptic holds the flapper down (13 rounds) at the cost of currency and
// detection lag.
func TestE22SchedulePinned(t *testing.T) {
	faults := append([]FaultEvent{CutLink(2_000, 0), HealLink(20_000, 0)}, flapper(3, 5_000, 15_000)...)
	for _, c := range []struct {
		skeptical bool
		rounds    int64
		currency  float64
	}{
		{false, 60, 0.9880},
		{true, 13, 0.2542},
	} {
		loop, currency := linkLife(t, ring(t, 8), faults, c.skeptical, 30_000)
		st := loop.Stats()
		if st.ReconfigRounds != c.rounds || int64(len(loop.Incidents())) != c.rounds {
			t.Errorf("skeptical=%v: %d rounds, %d incidents, want %d of each",
				c.skeptical, st.ReconfigRounds, len(loop.Incidents()), c.rounds)
		}
		if math.Abs(currency-c.currency) > 0.00005 {
			t.Errorf("skeptical=%v: view currency %.4f, want %.4f", c.skeptical, currency, c.currency)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil network accepted")
	}
	// Host links only: nothing to monitor.
	g := topology.New()
	if _, err := g.Connect(g.AddSwitch("s"), g.AddHost("h"), 1); err != nil {
		t.Fatal(err)
	}
	n, err := simnet.New(simnet.Config{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Net: n}); err == nil {
		t.Fatal("network without inter-switch links accepted")
	}
}
