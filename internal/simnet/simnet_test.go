package simnet

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/switchnode"
	"repro/internal/topology"
)

// lineNet builds hosts at both ends of a chain of k switches:
// h0 - s0 - s1 - ... - s(k-1) - h1.
func lineNet(t *testing.T, k int, linkLatency int64, cfg Config) (*Network, topology.NodeID, topology.NodeID, []topology.NodeID) {
	t.Helper()
	g, err := topology.Line(k, linkLatency)
	if err != nil {
		t.Fatal(err)
	}
	h0 := g.AddHost("h0")
	h1 := g.AddHost("h1")
	if _, err := g.Connect(h0, 0, linkLatency); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(h1, topology.NodeID(k-1), linkLatency); err != nil {
		t.Fatal(err)
	}
	cfg.Topology = g
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := []topology.NodeID{h0}
	for i := 0; i < k; i++ {
		path = append(path, topology.NodeID(i))
	}
	path = append(path, h1)
	return n, h0, h1, path
}

// requireEngineInvariant fails the test if the stepping engine's per-slot
// invariant (CheckEngineInvariant) does not hold.
func requireEngineInvariant(t *testing.T, n *Network) {
	t.Helper()
	if err := n.CheckEngineInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrNoTopology) {
		t.Fatalf("err = %v", err)
	}
	n, _, _, path := lineNet(t, 2, 1, Config{Switch: switchnode.Config{N: 4, FrameSlots: 8}})
	if _, err := n.OpenBestEffort(1, path[:2]); !errors.Is(err, ErrBadPath) {
		t.Fatalf("short path err = %v", err)
	}
	if _, err := n.OpenBestEffort(1, []topology.NodeID{path[1], path[1], path[2]}); !errors.Is(err, ErrNotHost) {
		t.Fatalf("non-host endpoint err = %v", err)
	}
	if _, err := n.OpenBestEffort(1, path); err != nil {
		t.Fatal(err)
	}
	if _, err := n.OpenBestEffort(1, path); !errors.Is(err, ErrDupCircuit) {
		t.Fatalf("dup err = %v", err)
	}
	if err := n.Send(99, [48]byte{}); !errors.Is(err, ErrNoCircuit) {
		t.Fatalf("send on closed err = %v", err)
	}
	if err := n.CloseCircuit(99); !errors.Is(err, ErrNoCircuit) {
		t.Fatalf("close unknown err = %v", err)
	}
}

func TestBestEffortEndToEnd(t *testing.T) {
	n, h0, h1, path := lineNet(t, 3, 2, Config{Switch: switchnode.Config{N: 4, FrameSlots: 16}})
	if _, err := n.OpenBestEffort(7, path); err != nil {
		t.Fatal(err)
	}
	const cells = 50
	for k := 0; k < cells; k++ {
		if err := n.Send(7, [48]byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(300)
	hs, _ := n.HostStats(h1)
	if hs.CellsReceived != cells {
		t.Fatalf("received %d of %d", hs.CellsReceived, cells)
	}
	if hs.OutOfOrder != 0 {
		t.Fatalf("%d cells out of order", hs.OutOfOrder)
	}
	ss, _ := n.HostStats(h0)
	if ss.CellsSent != cells {
		t.Fatalf("sent %d", ss.CellsSent)
	}
	// Unloaded latency: 4 links × 2 slots + 3 switches × ~1 slot ≈ 11-14.
	lat := hs.LatencyByClass[cell.BestEffort]
	if lat.Max() > 20 {
		t.Fatalf("unloaded max latency %d slots is too high", lat.Max())
	}
}

func TestPacketDelivery(t *testing.T) {
	n, _, h1, path := lineNet(t, 2, 1, Config{Switch: switchnode.Config{N: 4, FrameSlots: 16}})
	if _, err := n.OpenBestEffort(3, path); err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("an2 packet "), 40) // multi-cell packet
	if err := n.SendPacket(3, msg); err != nil {
		t.Fatal(err)
	}
	n.Run(200)
	pkts := n.Packets(h1)
	if len(pkts) != 1 || !bytes.Equal(pkts[0], msg) {
		t.Fatalf("got %d packets", len(pkts))
	}
	if again := n.Packets(h1); again != nil {
		t.Fatal("Packets did not clear")
	}
}

func TestGuaranteedEndToEnd(t *testing.T) {
	const frame = 32
	n, _, h1, path := lineNet(t, 3, 1, Config{Switch: switchnode.Config{N: 4, FrameSlots: frame}})
	if _, err := n.OpenGuaranteed(9, path, 4); err != nil {
		t.Fatal(err)
	}
	// Send 10 frames worth.
	for k := 0; k < 40; k++ {
		if err := n.Send(9, [48]byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(16 * frame)
	hs, _ := n.HostStats(h1)
	if hs.CellsReceived != 40 {
		t.Fatalf("received %d of 40", hs.CellsReceived)
	}
	if hs.OutOfOrder != 0 {
		t.Fatal("guaranteed cells out of order")
	}
}

func TestAdmissionControlRollback(t *testing.T) {
	const frame = 8
	n, _, _, path := lineNet(t, 2, 1, Config{Switch: switchnode.Config{N: 4, FrameSlots: frame}})
	// Fill the input port 1->? on switch 0... reserve frame cells on the
	// path; a second circuit on the same ports must be refused.
	if _, err := n.OpenGuaranteed(1, path, frame); err != nil {
		t.Fatal(err)
	}
	if _, err := n.OpenGuaranteed(2, path, 1); err == nil {
		t.Fatal("overcommitted admission accepted")
	}
	// The failed setup must not leak reservations: closing circuit 1
	// frees everything, then the big reservation fits again.
	if err := n.CloseCircuit(1); err != nil {
		t.Fatal(err)
	}
	if _, err := n.OpenGuaranteed(3, path, frame); err != nil {
		t.Fatalf("rollback leaked reservations: %v", err)
	}
}

// E9: guaranteed latency bound p × (2f + l). A chain of p switches with
// maximally adverse frame phases still delivers every guaranteed cell
// within the bound.
func TestGuaranteedLatencyBound(t *testing.T) {
	const frame = 64
	rng := rand.New(rand.NewSource(3))
	for _, p := range []int{1, 2, 4} {
		phases := map[topology.NodeID]int64{}
		for i := 0; i < p; i++ {
			phases[topology.NodeID(i)] = rng.Int63n(frame)
		}
		const linkLat = 2
		n, _, h1, path := lineNet(t, p, linkLat, Config{
			Switch:     switchnode.Config{N: 4, FrameSlots: frame},
			FramePhase: phases,
		})
		if _, err := n.OpenGuaranteed(5, path, 4); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 100; k++ {
			if err := n.Send(5, [48]byte{}); err != nil {
				t.Fatal(err)
			}
		}
		n.Run(40 * frame)
		hs, _ := n.HostStats(h1)
		if hs.CellsReceived < 90 {
			t.Fatalf("p=%d: received only %d", p, hs.CellsReceived)
		}
		bound := int64(p)*(2*frame+linkLat) + 2*(linkLat+1) + frame
		if got := hs.LatencyByClass[cell.Guaranteed].Max(); got > bound {
			t.Fatalf("p=%d: max guaranteed latency %d exceeds bound %d", p, got, bound)
		}
	}
}

// E8: guaranteed buffer occupancy stays within a small number of frames of
// the circuit's per-frame reservation, even with adverse phases.
func TestGuaranteedBufferBound(t *testing.T) {
	const frame = 32
	phases := map[topology.NodeID]int64{0: 0, 1: frame / 2, 2: frame - 1}
	n, _, _, path := lineNet(t, 3, 1, Config{
		Switch:     switchnode.Config{N: 4, FrameSlots: frame},
		FramePhase: phases,
	})
	const k = 8
	if _, err := n.OpenGuaranteed(2, path, k); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 50*k; c++ {
		if err := n.Send(2, [48]byte{}); err != nil {
			t.Fatal(err)
		}
	}
	maxOcc := 0
	for s := 0; s < 60*frame; s++ {
		n.Step()
		if occ := n.MaxGuaranteedOccupancy(); occ > maxOcc {
			maxOcc = occ
		}
	}
	// The paper's bound: 2 frames of buffering for synchronous networks,
	// 4 for asynchronous. Per circuit that is 2k/4k cells.
	if maxOcc > 4*k {
		t.Fatalf("guaranteed occupancy %d exceeds 4 frames' worth (%d)", maxOcc, 4*k)
	}
	if maxOcc == 0 {
		t.Fatal("no guaranteed buffering observed at all")
	}
}

func TestIngressWindowLossless(t *testing.T) {
	// Saturate a best-effort circuit with a tiny ingress window: nothing
	// may be dropped, and in-network backlog stays bounded by the window.
	n, _, h1, path := lineNet(t, 3, 2, Config{
		Switch:        switchnode.Config{N: 4, FrameSlots: 16},
		IngressWindow: 6,
	})
	if _, err := n.OpenBestEffort(4, path); err != nil {
		t.Fatal(err)
	}
	const cells = 400
	for k := 0; k < cells; k++ {
		if err := n.Send(4, [48]byte{}); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < 3000; s++ {
		n.Step()
		if bl := n.TotalBestEffortBacklog(); bl > 6 {
			t.Fatalf("backlog %d exceeds ingress window", bl)
		}
	}
	hs, _ := n.HostStats(h1)
	if hs.CellsReceived != cells {
		t.Fatalf("received %d of %d", hs.CellsReceived, cells)
	}
	st := n.Stats()
	if st.DroppedInFlight != 0 || st.DroppedReroute != 0 {
		t.Fatalf("drops: %+v", st)
	}
}

func TestKillLinkDropsOnlyInFlight(t *testing.T) {
	n, _, h1, path := lineNet(t, 2, 10, Config{Switch: switchnode.Config{N: 4, FrameSlots: 16}})
	if _, err := n.OpenBestEffort(6, path); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 20; k++ {
		if err := n.Send(6, [48]byte{}); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(15) // cells now in flight on the middle link
	link, _ := n.cfg.Topology.LinkBetween(path[1], path[2])
	n.KillLink(link.ID)
	n.Run(400)
	st := n.Stats()
	if st.DroppedInFlight == 0 {
		t.Fatal("killing a busy link dropped nothing")
	}
	hs, _ := n.HostStats(h1)
	if hs.CellsReceived+st.DroppedInFlight < 10 {
		t.Fatalf("cells unaccounted for: received %d dropped %d", hs.CellsReceived, st.DroppedInFlight)
	}
	// Restore: remaining traffic flows again.
	n.RestoreLink(link.ID)
	received := hs.CellsReceived
	for k := 0; k < 5; k++ {
		if err := n.Send(6, [48]byte{}); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(300)
	if hs.CellsReceived <= received {
		t.Fatal("restored link carries nothing")
	}
}

// E1 (service view) + reroute: kill a switch on the path, reroute the
// circuit over a redundant path, traffic continues; only in-transit cells
// died.
func TestRerouteAroundDeadSwitch(t *testing.T) {
	// Diamond: h0 - a - {b | c} - d - h1.
	g := topology.New()
	a := g.AddSwitch("a")
	b := g.AddSwitch("b")
	c := g.AddSwitch("c")
	d := g.AddSwitch("d")
	for _, pr := range [][2]topology.NodeID{{a, b}, {a, c}, {b, d}, {c, d}} {
		if _, err := g.Connect(pr[0], pr[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	h0 := g.AddHost("h0")
	h1 := g.AddHost("h1")
	if _, err := g.Connect(h0, a, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(h1, d, 1); err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{Topology: g, Switch: switchnode.Config{N: 4, FrameSlots: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.OpenBestEffort(8, []topology.NodeID{h0, a, b, d, h1}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 100; k++ {
		if err := n.Send(8, [48]byte{}); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(30)
	n.KillSwitch(b)
	if err := n.Reroute(8, []topology.NodeID{h0, a, c, d, h1}); err != nil {
		t.Fatal(err)
	}
	n.Run(400)
	hs, _ := n.HostStats(h1)
	st := n.Stats()
	if hs.CellsReceived == 0 {
		t.Fatal("no delivery after reroute")
	}
	total := hs.CellsReceived + st.DroppedInFlight + st.DroppedReroute
	if total < 95 {
		t.Fatalf("lost track of cells: delivered %d, dropped %d+%d",
			hs.CellsReceived, st.DroppedInFlight, st.DroppedReroute)
	}
	// Reroute of a dead path must fail cleanly.
	if err := n.Reroute(8, []topology.NodeID{h0, a, b, d, h1}); !errors.Is(err, ErrDeadElement) {
		t.Fatalf("reroute through dead switch err = %v", err)
	}
}

func TestRerouteGuaranteedMovesReservations(t *testing.T) {
	g := topology.New()
	a := g.AddSwitch("a")
	b := g.AddSwitch("b")
	c := g.AddSwitch("c")
	d := g.AddSwitch("d")
	for _, pr := range [][2]topology.NodeID{{a, b}, {a, c}, {b, d}, {c, d}} {
		if _, err := g.Connect(pr[0], pr[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	h0 := g.AddHost("h0")
	h1 := g.AddHost("h1")
	if _, err := g.Connect(h0, a, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(h1, d, 1); err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{Topology: g, Switch: switchnode.Config{N: 4, FrameSlots: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.OpenGuaranteed(5, []topology.NodeID{h0, a, b, d, h1}, 2); err != nil {
		t.Fatal(err)
	}
	swB, _ := n.Switch(b)
	if sum := reservationSum(swB); sum != 2 {
		t.Fatalf("switch b reservations = %d, want 2", sum)
	}
	if err := n.Reroute(5, []topology.NodeID{h0, a, c, d, h1}); err != nil {
		t.Fatal(err)
	}
	if sum := reservationSum(swB); sum != 0 {
		t.Fatalf("switch b kept %d reservations after reroute", sum)
	}
	swC, _ := n.Switch(c)
	if sum := reservationSum(swC); sum != 2 {
		t.Fatalf("switch c reservations = %d, want 2", sum)
	}
}

func reservationSum(sw *switchnode.Switch) int {
	total := 0
	for _, row := range sw.Frame().Reservations() {
		for _, v := range row {
			total += v
		}
	}
	return total
}

func TestGuaranteedUnaffectedByBestEffortLoad(t *testing.T) {
	// A guaranteed stream keeps its latency bound while a best-effort
	// flood shares the path.
	const frame = 32
	n, _, h1, path := lineNet(t, 2, 1, Config{Switch: switchnode.Config{N: 4, FrameSlots: frame}})
	if _, err := n.OpenGuaranteed(1, path, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := n.OpenBestEffort(2, path); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2000; k++ {
		if err := n.Send(2, [48]byte{}); err != nil { // flood
			t.Fatal(err)
		}
	}
	for k := 0; k < 40; k++ {
		if err := n.Send(1, [48]byte{}); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(20 * frame)
	hs, _ := n.HostStats(h1)
	g := hs.LatencyByClass[cell.Guaranteed]
	if g.Count() < 35 {
		t.Fatalf("guaranteed delivered %d of 40 under load", g.Count())
	}
	bound := int64(2)*(2*frame+1) + frame + 10
	if g.Max() > bound {
		t.Fatalf("guaranteed latency %d under best-effort load exceeds %d", g.Max(), bound)
	}
}

// TestLinkAddedAfterNewGrowsCalendar: a link connected after the network was
// built, longer than any it was built with, is carried — the per-link
// counters and the calendars' ring are re-sized when a path first names it,
// with cells already in flight keeping their arrival slots.
func TestLinkAddedAfterNewGrowsCalendar(t *testing.T) {
	n, _, h1, path := lineNet(t, 3, 1, Config{Switch: switchnode.Config{N: 4, FrameSlots: 8}})
	if _, err := n.OpenBestEffort(1, path); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(1, [cell.PayloadSize]byte{1}); err != nil {
		t.Fatal(err)
	}
	n.Step() // the cell is on the first link when the ring grows
	long, err := n.g.Connect(path[1], path[3], 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.OpenBestEffort(2, []topology.NodeID{path[0], path[1], path[3], path[4]}); err != nil {
		t.Fatal(err)
	}
	if got := len(n.flights.ring); got != 6 {
		t.Fatalf("calendar ring has %d buckets after a 5-slot link joined, want 6", got)
	}
	if err := n.Send(2, [cell.PayloadSize]byte{2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		n.Step()
		requireEngineInvariant(t, n)
	}
	if hs, _ := n.HostStats(h1); hs.CellsReceived != 2 {
		t.Fatalf("delivered %d of 2 cells", hs.CellsReceived)
	}
	if u := n.LinkUtilization()[long]; u == 0 {
		t.Fatal("the added link carried nothing")
	}
}
