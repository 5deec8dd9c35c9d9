package simnet

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/cell"
	"repro/internal/switchnode"
	"repro/internal/topology"
)

// diamondNet builds the redundant-path fixture h0 - a - {b | c} - d - h1
// and returns the network plus every node, so fault tests can kill one
// branch and recover over the other.
func diamondNet(t *testing.T, cfg Config) (n *Network, a, b, c, d, h0, h1 topology.NodeID) {
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
	cfg.Topology = g
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net, a, b, c, d, h0, h1
}

// reservationsOf captures every switch's full frame reservation matrix.
func reservationsOf(n *Network, switches ...topology.NodeID) map[topology.NodeID][][]int {
	out := make(map[topology.NodeID][][]int)
	for _, s := range switches {
		sw, _ := n.Switch(s)
		res := sw.Frame().Reservations()
		cp := make([][]int, len(res))
		for i, row := range res {
			cp[i] = append([]int(nil), row...)
		}
		out[s] = cp
	}
	return out
}

// TestRerouteFailedAdmissionLeavesReservations is the regression test for
// the release-before-reserve bug: a guaranteed reroute whose new path is
// refused admission must leave every switch's reservations — old path
// included — exactly as they were before the call.
func TestRerouteFailedAdmissionLeavesReservations(t *testing.T) {
	n, a, b, c, d, h0, h1 := diamondNet(t, Config{Switch: switchnode.Config{FrameSlots: 8}})
	if _, err := n.OpenGuaranteed(5, []topology.NodeID{h0, a, b, d, h1}, 2); err != nil {
		t.Fatal(err)
	}
	// Saturate branch c so the reroute's admission must fail there.
	if _, err := n.OpenGuaranteed(6, []topology.NodeID{h0, a, c, d, h1}, 6); err != nil {
		t.Fatal(err)
	}
	before := reservationsOf(n, a, b, c, d)
	err := n.Reroute(5, []topology.NodeID{h0, a, c, d, h1})
	if err == nil {
		t.Fatal("reroute onto a saturated branch succeeded, want admission failure")
	}
	after := reservationsOf(n, a, b, c, d)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("failed reroute disturbed reservations:\nbefore %v\nafter  %v", before, after)
	}
	// The circuit must still be usable on its old path.
	if err := n.Send(5, [cell.PayloadSize]byte{1}); err != nil {
		t.Fatal(err)
	}
	n.Run(64)
	if hs, _ := n.HostStats(h1); hs.CellsReceived == 0 {
		t.Fatal("circuit dead after failed reroute")
	}
}

// TestReroutePurgesBufferedCells checks the corrected Reroute contract:
// cells of the circuit still buffered at old-path switches are discarded
// and counted in DroppedReroute, not left to chase stale ports.
func TestReroutePurgesBufferedCells(t *testing.T) {
	n, a, b, c, d, h0, h1 := diamondNet(t, Config{
		Switch:        switchnode.Config{FrameSlots: 16, Discipline: switchnode.DisciplinePerVC},
		IngressWindow: 0,
	})
	// Two circuits share the a->b output, so input rate 2 vs output rate 1
	// builds a backlog at a.
	for vc := cell.VCI(1); vc <= 2; vc++ {
		if _, err := n.OpenBestEffort(vc, []topology.NodeID{h0, a, b, d, h1}); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 60; k++ {
		for vc := cell.VCI(1); vc <= 2; vc++ {
			if err := n.Send(vc, [cell.PayloadSize]byte{byte(vc)}); err != nil {
				t.Fatal(err)
			}
		}
		n.Step()
	}
	swA, _ := n.Switch(a)
	buffered := swA.BufferedVC(1)
	if buffered == 0 {
		t.Fatal("fixture failed to build a backlog for vc 1 at switch a")
	}
	droppedBefore := n.Stats().DroppedReroute
	if err := n.Reroute(1, []topology.NodeID{h0, a, c, d, h1}); err != nil {
		t.Fatal(err)
	}
	if got := swA.BufferedVC(1); got != 0 {
		t.Fatalf("switch a still buffers %d cells of vc 1 after reroute", got)
	}
	if gain := n.Stats().DroppedReroute - droppedBefore; gain < int64(buffered) {
		t.Fatalf("DroppedReroute grew by %d, want >= %d purged cells", gain, buffered)
	}
	if err := n.ResyncIngress(1); err != nil {
		t.Fatal(err)
	}
	if snap := n.Snapshot(); !snap.Conserved() {
		t.Fatalf("conservation broken after purge: %+v", snap)
	}
	// Traffic must flow on the new branch.
	base, _ := n.HostStats(h1)
	received := base.CellsReceived
	for k := 0; k < 40; k++ {
		if err := n.Send(1, [cell.PayloadSize]byte{9}); err != nil {
			t.Fatal(err)
		}
		n.Step()
	}
	n.Run(40)
	if hs, _ := n.HostStats(h1); hs.CellsReceived <= received {
		t.Fatal("no delivery on the new path after reroute")
	}
}

// TestKillSwitchCountsBufferedCells checks the corrected KillSwitch
// contract: the dead switch's buffered cells are drained into
// DroppedInFlight (previously they silently vanished from the accounting),
// and its frame schedule is lost.
func TestKillSwitchCountsBufferedCells(t *testing.T) {
	n, a, b, _, d, h0, h1 := diamondNet(t, Config{
		Switch: switchnode.Config{FrameSlots: 16, Discipline: switchnode.DisciplinePerVC},
	})
	for vc := cell.VCI(1); vc <= 2; vc++ {
		if _, err := n.OpenBestEffort(vc, []topology.NodeID{h0, a, b, d, h1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.OpenGuaranteed(7, []topology.NodeID{h0, a, b, d, h1}, 2); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 50; k++ {
		for vc := cell.VCI(1); vc <= 2; vc++ {
			if err := n.Send(vc, [cell.PayloadSize]byte{byte(vc)}); err != nil {
				t.Fatal(err)
			}
		}
		n.Step()
	}
	swA, _ := n.Switch(a)
	buffered := 0
	for i := 0; i < swA.N(); i++ {
		buffered += swA.BufferedBestEffort(i) + swA.BufferedGuaranteed(i)
	}
	if buffered == 0 {
		t.Fatal("fixture failed to build a backlog at switch a")
	}
	droppedBefore := n.Stats().DroppedInFlight
	n.KillSwitch(a)
	if gain := n.Stats().DroppedInFlight - droppedBefore; gain < int64(buffered) {
		t.Fatalf("DroppedInFlight grew by %d on kill, want >= %d buffered cells", gain, buffered)
	}
	if sum := reservationSum(swA); sum != 0 {
		t.Fatalf("dead switch kept %d frame reservations", sum)
	}
	if snap := n.Snapshot(); !snap.Conserved() {
		t.Fatalf("conservation broken after kill: %+v", snap)
	}
	// Idempotent: a second kill changes nothing.
	statsAfter := n.Stats()
	n.KillSwitch(a)
	if n.Stats() != statsAfter {
		t.Fatal("double kill changed counters")
	}
}

// TestRestoreSwitchReplaysReservations checks kill/restore symmetry: the
// switch returns with empty buffers, and the reservations of guaranteed
// circuits still routed through it are re-installed.
func TestRestoreSwitchReplaysReservations(t *testing.T) {
	n, a, b, _, d, h0, h1 := diamondNet(t, Config{Switch: switchnode.Config{FrameSlots: 8}})
	if _, err := n.OpenGuaranteed(5, []topology.NodeID{h0, a, b, d, h1}, 2); err != nil {
		t.Fatal(err)
	}
	swB, _ := n.Switch(b)
	if sum := reservationSum(swB); sum != 2 {
		t.Fatalf("reservations at b = %d, want 2", sum)
	}
	n.KillSwitch(b)
	if !n.deadNodes[b] {
		t.Fatal("b alive after kill")
	}
	if sum := reservationSum(swB); sum != 0 {
		t.Fatalf("crash kept %d reservations", sum)
	}
	n.RestoreSwitch(b)
	if n.deadNodes[b] {
		t.Fatal("b dead after restore")
	}
	if sum := reservationSum(swB); sum != 2 {
		t.Fatalf("restore replayed %d reservations, want 2", sum)
	}
	if slotChanged, ok := n.LastSwitchChangeSlot(b); !ok || slotChanged != n.Slot() {
		t.Fatalf("LastSwitchChangeSlot = %d,%v, want %d,true", slotChanged, ok, n.Slot())
	}
	// Traffic flows again through the restored switch.
	for k := 0; k < 32; k++ {
		if err := n.Send(5, [cell.PayloadSize]byte{3}); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(200)
	if hs, _ := n.HostStats(h1); hs.CellsReceived == 0 {
		t.Fatal("no delivery through restored switch")
	}
	// Restoring a live switch is a no-op.
	before := reservationsOf(n, b)
	n.RestoreSwitch(b)
	if !reflect.DeepEqual(before, reservationsOf(n, b)) {
		t.Fatal("restore of a live switch disturbed reservations")
	}
}

// TestConservationUnderFaultSequence is the fault-path conservation
// invariant: after any sequence of kill/restore/reroute under live mixed
// traffic, injected == delivered + buffered + in-flight + dropped.
func TestConservationUnderFaultSequence(t *testing.T) {
	n, a, b, c, d, h0, h1 := diamondNet(t, Config{
		Switch:        switchnode.Config{FrameSlots: 16, Discipline: switchnode.DisciplinePerVC},
		IngressWindow: 8,
	})
	upper := []topology.NodeID{h0, a, b, d, h1}
	lower := []topology.NodeID{h0, a, c, d, h1}
	for vc := cell.VCI(1); vc <= 3; vc++ {
		if _, err := n.OpenBestEffort(vc, upper); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.OpenGuaranteed(9, lower, 2); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if snap := n.Snapshot(); !snap.Conserved() {
			t.Fatalf("conservation broken %s: %+v", when, snap)
		}
	}
	abLink, _ := n.Topology().LinkBetween(a, b)
	for slot := 0; slot < 600; slot++ {
		for vc := cell.VCI(1); vc <= 3; vc++ {
			if slot%2 == int(vc)%2 {
				if err := n.Send(vc, [cell.PayloadSize]byte{byte(vc), byte(slot)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if slot%8 == 0 {
			if err := n.Send(9, [cell.PayloadSize]byte{9, byte(slot)}); err != nil {
				t.Fatal(err)
			}
		}
		switch slot {
		case 100:
			n.KillLink(abLink.ID)
			check("after KillLink")
			for vc := cell.VCI(1); vc <= 3; vc++ {
				if err := n.Reroute(vc, lower); err != nil {
					t.Fatal(err)
				}
				if err := n.ResyncIngress(vc); err != nil {
					t.Fatal(err)
				}
			}
			check("after reroute off dead link")
		case 200:
			n.RestoreLink(abLink.ID)
			check("after RestoreLink")
		case 300:
			n.KillSwitch(c)
			check("after KillSwitch")
			for vc := cell.VCI(1); vc <= 3; vc++ {
				if err := n.Reroute(vc, upper); err != nil {
					t.Fatal(err)
				}
				if err := n.ResyncIngress(vc); err != nil {
					t.Fatal(err)
				}
			}
			if err := n.Reroute(9, upper); err != nil {
				t.Fatal(err)
			}
			check("after rerouting all circuits off dead switch")
		case 400:
			n.RestoreSwitch(c)
			check("after RestoreSwitch")
		}
		n.Step()
		if slot%50 == 0 {
			check("mid-run")
		}
	}
	n.Run(300) // drain
	snap := n.Snapshot()
	if !snap.Conserved() {
		t.Fatalf("conservation broken after drain: %+v", snap)
	}
	if snap.Delivered == 0 || snap.Lost() == 0 {
		t.Fatalf("fixture too gentle: delivered %d, lost %d", snap.Delivered, snap.Lost())
	}
	hs, _ := n.HostStats(h1)
	if hs.CellsReceived != snap.Delivered {
		t.Fatalf("host saw %d cells, network delivered %d", hs.CellsReceived, snap.Delivered)
	}
}

// TestProbeLinkSeesFaults checks the liveness probe the recovery loop
// feeds its skeptics: a probe fails when the link is cut or either
// endpoint switch is dead, and recovers on restore.
func TestProbeLinkSeesFaults(t *testing.T) {
	n, a, b, _, _, _, _ := diamondNet(t, Config{Switch: switchnode.Config{FrameSlots: 8}})
	link, _ := n.Topology().LinkBetween(a, b)
	if !n.ProbeLink(link.ID) {
		t.Fatal("probe failed on a healthy link")
	}
	n.KillLink(link.ID)
	if n.ProbeLink(link.ID) {
		t.Fatal("probe succeeded across a cut link")
	}
	n.RestoreLink(link.ID)
	if !n.ProbeLink(link.ID) {
		t.Fatal("probe failed after link restore")
	}
	n.KillSwitch(b)
	if n.ProbeLink(link.ID) {
		t.Fatal("probe succeeded toward a dead switch")
	}
	n.RestoreSwitch(b)
	if !n.ProbeLink(link.ID) {
		t.Fatal("probe failed after switch restore")
	}
	if n.ProbeLink(topology.LinkID(9999)) {
		t.Fatal("probe succeeded on an unknown link")
	}
}

// TestRerouteDeadPathRejected keeps the old negative-path behaviour: a
// reroute onto a path using a dead element fails with ErrDeadElement and
// changes nothing.
func TestRerouteDeadPathRejected(t *testing.T) {
	n, a, b, c, d, h0, h1 := diamondNet(t, Config{Switch: switchnode.Config{FrameSlots: 8}})
	if _, err := n.OpenGuaranteed(5, []topology.NodeID{h0, a, b, d, h1}, 2); err != nil {
		t.Fatal(err)
	}
	n.KillSwitch(c)
	before := reservationsOf(n, a, b, d)
	if err := n.Reroute(5, []topology.NodeID{h0, a, c, d, h1}); !errors.Is(err, ErrDeadElement) {
		t.Fatalf("reroute through dead switch err = %v", err)
	}
	if !reflect.DeepEqual(before, reservationsOf(n, a, b, d)) {
		t.Fatal("rejected reroute disturbed reservations")
	}
}

// TestRestoreSwitchAfterRerouteAway: a guaranteed circuit is rerouted off
// a crashed switch while it is down. The restored switch must come back
// with NO reservation for that circuit — replaying the pre-crash setup
// would leak capacity a future admission could then falsely refuse — and
// the circuit must be admissible back onto it at full capacity.
func TestRestoreSwitchAfterRerouteAway(t *testing.T) {
	n, a, b, c, d, h0, h1 := diamondNet(t, Config{Switch: switchnode.Config{FrameSlots: 8}})
	if _, err := n.OpenGuaranteed(5, []topology.NodeID{h0, a, b, d, h1}, 2); err != nil {
		t.Fatal(err)
	}
	n.KillSwitch(b)
	// Mid-outage: move the circuit to the surviving lower branch.
	if err := n.Reroute(5, []topology.NodeID{h0, a, c, d, h1}); err != nil {
		t.Fatal(err)
	}
	n.RestoreSwitch(b)
	swB, _ := n.Switch(b)
	if sum := reservationSum(swB); sum != 0 {
		t.Fatalf("restored switch holds %d phantom reservation slots for a circuit routed elsewhere", sum)
	}
	swC, _ := n.Switch(c)
	if sum := reservationSum(swC); sum != 2 {
		t.Fatalf("reservations at c = %d, want 2", sum)
	}
	// The capacity b freed must be genuinely available: admit the circuit
	// back through b (make-before-break briefly holds both paths, so this
	// also proves no phantom occupancy inflates admission at b).
	if err := n.Reroute(5, []topology.NodeID{h0, a, b, d, h1}); err != nil {
		t.Fatalf("reroute back through restored switch refused: %v", err)
	}
	if sum := reservationSum(swB); sum != 2 {
		t.Fatalf("reservations at b after return = %d, want 2", sum)
	}
	if sum := reservationSum(swC); sum != 0 {
		t.Fatalf("old-path reservations at c not released: %d", sum)
	}
	if !n.Snapshot().Conserved() {
		t.Fatalf("conservation broken: %+v", n.Snapshot())
	}
}

// TestRestoreSwitchDoubleRestoreIdempotent: restoring a dead switch twice
// must install its reservations exactly once, and the second call must be
// a complete no-op (no double-reserve, no trace-visible state change).
func TestRestoreSwitchDoubleRestoreIdempotent(t *testing.T) {
	n, a, b, _, d, h0, h1 := diamondNet(t, Config{Switch: switchnode.Config{FrameSlots: 8}})
	if _, err := n.OpenGuaranteed(5, []topology.NodeID{h0, a, b, d, h1}, 2); err != nil {
		t.Fatal(err)
	}
	n.KillSwitch(b)
	n.RestoreSwitch(b)
	swB, _ := n.Switch(b)
	first := reservationSum(swB)
	if first != 2 {
		t.Fatalf("restore replayed %d reservation slots, want 2", first)
	}
	before := reservationsOf(n, a, b, d)
	beforeSnap := n.Snapshot()
	n.RestoreSwitch(b)
	if sum := reservationSum(swB); sum != first {
		t.Fatalf("double restore changed reservations: %d -> %d", first, sum)
	}
	if !reflect.DeepEqual(before, reservationsOf(n, a, b, d)) {
		t.Fatal("double restore disturbed some switch's reservation matrix")
	}
	if snap := n.Snapshot(); snap != beforeSnap {
		t.Fatalf("double restore changed accounting: %+v -> %+v", beforeSnap, snap)
	}
	if n.deadNodes[b] {
		t.Fatal("switch dead after double restore")
	}
}

// IngressWindow exposes the credit state invariant checkers assert on.
func TestIngressWindowAccessor(t *testing.T) {
	n, a, b, _, d, h0, h1 := diamondNet(t, Config{Switch: switchnode.Config{FrameSlots: 8}, IngressWindow: 4})
	if _, err := n.OpenBestEffort(1, []topology.NodeID{h0, a, b, d, h1}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.OpenGuaranteed(5, []topology.NodeID{h0, a, b, d, h1}, 2); err != nil {
		t.Fatal(err)
	}
	w, inUse, ok := n.IngressWindow(1)
	if !ok || w != 4 || inUse != 0 {
		t.Fatalf("IngressWindow(1) = %d,%d,%v, want 4,0,true", w, inUse, ok)
	}
	for k := 0; k < 6; k++ {
		if err := n.Send(1, [cell.PayloadSize]byte{1}); err != nil {
			t.Fatal(err)
		}
		n.Step()
	}
	if _, inUse, _ := n.IngressWindow(1); inUse <= 0 || inUse > 4 {
		t.Fatalf("inUse = %d outside (0, window]", inUse)
	}
	if _, _, ok := n.IngressWindow(5); ok {
		t.Fatal("guaranteed circuit reported a credit window")
	}
	if _, _, ok := n.IngressWindow(99); ok {
		t.Fatal("unknown circuit reported a credit window")
	}
}
