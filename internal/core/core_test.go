package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/schedule"
	"repro/internal/topology"
)

// srcLAN builds an SRC-like redundant network with hosts.
func srcLAN(t *testing.T, seed int64) (*LAN, *topology.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := topology.SRCLike(rng, 4, 6, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(Config{Topology: g, FrameSlots: 64, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return l, g
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrNoTopology) {
		t.Fatalf("err = %v", err)
	}
	g := topology.New()
	g.AddHost("h")
	if _, err := New(Config{Topology: g}); err == nil {
		t.Fatal("switchless topology accepted")
	}
}

func TestBootElectsCentralAndBuildsRouter(t *testing.T) {
	l, g := srcLAN(t, 1)
	if l.CentralAt() == topology.None {
		t.Fatal("no central elected")
	}
	// Highest-UID live switch hosts central.
	var want topology.NodeID
	var bestUID uint64
	for _, s := range g.Switches() {
		n, _ := g.Node(s)
		if n.UID > bestUID {
			bestUID = n.UID
			want = s
		}
	}
	if l.CentralAt() != want {
		t.Fatalf("central at %d, want %d", l.CentralAt(), want)
	}
	if l.Router() == nil || l.LastReconfig().Tag.Epoch == 0 {
		t.Fatal("router/reconfig missing after boot")
	}
	if len(l.Router().Tree().Level) != len(g.Switches()) {
		t.Fatal("boot reconfiguration incomplete")
	}
}

func TestBestEffortPacketFlow(t *testing.T) {
	l, g := srcLAN(t, 2)
	hosts := g.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	vcid, err := l.OpenBestEffort(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("hello an2 "), 100)
	if err := l.SendPacket(vcid, msg); err != nil {
		t.Fatal(err)
	}
	l.Run(2000)
	pkts := l.Packets(dst)
	if len(pkts) != 1 || !bytes.Equal(pkts[0], msg) {
		t.Fatalf("packet flow broken: %d packets", len(pkts))
	}
	if path, ok := l.CircuitPath(vcid); !ok || len(path) < 3 {
		t.Fatalf("path = %v", path)
	}
	if len(l.Circuits()) != 1 {
		t.Fatal("circuit bookkeeping wrong")
	}
	if err := l.Close(vcid); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(vcid); !errors.Is(err, ErrNoCircuit) {
		t.Fatalf("double close err = %v", err)
	}
}

func TestGuaranteedReservationFlow(t *testing.T) {
	l, g := srcLAN(t, 3)
	hosts := g.Hosts()
	src, dst := hosts[0], hosts[1]
	vcid, err := l.Reserve(src, dst, 8)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 64; k++ {
		if err := l.Send(vcid, [cell.PayloadSize]byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Run(1200)
	hs, _ := l.HostStats(dst)
	if hs.CellsReceived < 60 {
		t.Fatalf("guaranteed delivery %d of 64", hs.CellsReceived)
	}
	if hs.OutOfOrder != 0 {
		t.Fatal("out of order")
	}
	if err := l.Close(vcid); err != nil {
		t.Fatal(err)
	}
}

func TestReserveDeniedWhenFull(t *testing.T) {
	l, g := srcLAN(t, 4)
	hosts := g.Hosts()
	src, dst := hosts[0], hosts[1]
	// Capacity is FrameSlots/2 = 32 per link; the shared host link caps
	// total reservations between this pair.
	if _, err := l.Reserve(src, dst, 32); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Reserve(src, dst, 1); err == nil {
		t.Fatal("overcommitted reservation accepted")
	}
}

// The headline demo, end to end through the public API: pull the plug on
// a switch carrying live traffic. The network reconfigures in < 200 ms
// (virtual time), circuits reroute, and packets keep flowing.
func TestPullPlugEndToEnd(t *testing.T) {
	l, g := srcLAN(t, 5)
	hosts := g.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	vcid, err := l.OpenBestEffort(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	// Keep traffic flowing.
	for k := 0; k < 50; k++ {
		if err := l.Send(vcid, [cell.PayloadSize]byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	l.Run(20)

	// Pull the plug on a switch mid-path (or any switch).
	path, _ := l.CircuitPath(vcid)
	victim := path[1+len(path[1:len(path)-1])/2] // a switch on the path
	report, err := l.PullPlug(victim)
	if err != nil {
		t.Fatal(err)
	}
	if report.ReconfigTimeUS >= 200_000 {
		t.Fatalf("reconfiguration took %d µs, budget 200 ms", report.ReconfigTimeUS)
	}
	if report.Rerouted != 1 || report.Unroutable != 0 {
		t.Fatalf("report = %+v", report)
	}
	// Traffic continues on the new path.
	for k := 0; k < 50; k++ {
		if err := l.Send(vcid, [cell.PayloadSize]byte{2}); err != nil {
			t.Fatal(err)
		}
	}
	l.Run(3000)
	hs, _ := l.HostStats(dst)
	if hs.CellsReceived < 50 {
		t.Fatalf("only %d cells arrived after the plug was pulled", hs.CellsReceived)
	}
	newPath, _ := l.CircuitPath(vcid)
	for _, n := range newPath {
		if n == victim {
			t.Fatal("rerouted path still crosses the victim")
		}
	}
	// Pulling the same plug twice is an error.
	if _, err := l.PullPlug(victim); !errors.Is(err, ErrDeadSwitch) {
		t.Fatalf("double plug err = %v", err)
	}
	if _, err := l.PullPlug(hosts[0]); err == nil {
		t.Fatal("pulled the plug on a host")
	}
}

func TestPullPlugReelectsCentral(t *testing.T) {
	l, _ := srcLAN(t, 6)
	first := l.CentralAt()
	if _, err := l.PullPlug(first); err != nil {
		t.Fatal(err)
	}
	if l.CentralAt() == first {
		t.Fatal("dead switch still hosts bandwidth central")
	}
}

func TestPullPlugPreservesGuaranteed(t *testing.T) {
	l, g := srcLAN(t, 7)
	hosts := g.Hosts()
	vcid, err := l.Reserve(hosts[0], hosts[2], 4)
	if err != nil {
		t.Fatal(err)
	}
	path, _ := l.CircuitPath(vcid)
	// Find a switch on the path that is not the only attachment of the
	// endpoints (any middle switch).
	victim := path[1]
	if len(path) > 4 {
		victim = path[2]
	}
	report, err := l.PullPlug(victim)
	if err != nil {
		t.Fatal(err)
	}
	if report.Rerouted+report.Unroutable != 1 {
		t.Fatalf("report = %+v", report)
	}
	if report.Rerouted == 1 {
		for k := 0; k < 16; k++ {
			if err := l.Send(vcid, [cell.PayloadSize]byte{}); err != nil {
				t.Fatal(err)
			}
		}
		l.Run(1500)
		hs, _ := l.HostStats(hosts[2])
		if hs.CellsReceived == 0 {
			t.Fatal("guaranteed circuit dead after reroute")
		}
	}
}

// Figure 1's host redundancy: "Each host has links to two different
// switches. Only one link is in active use at any time; the other is an
// alternate to be used if the first fails." Kill the switch the host's
// active link lands on and verify the circuit fails over to the alternate.
func TestHostFailoverToAlternateLink(t *testing.T) {
	l, g := srcLAN(t, 11)
	hosts := g.Hosts()
	src, dst := hosts[0], hosts[1]
	vcid, err := l.OpenBestEffort(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	path, _ := l.CircuitPath(vcid)
	primary := path[1] // the switch serving the source host's active link
	// The host must actually be dual-homed for the demo to mean anything.
	if len(g.Neighbors(src)) != 2 {
		t.Fatal("SRC-like host not dual-homed")
	}
	alternate := topology.None
	for _, nb := range g.Neighbors(src) {
		if nb != primary {
			alternate = nb
		}
	}
	if alternate == topology.None {
		// Both host links land on the same switch in this draw: the
		// failure would isolate the host; skip.
		t.Skip("host dual-homed to a single switch in this draw")
	}
	report, err := l.PullPlug(primary)
	if err != nil {
		t.Fatal(err)
	}
	if report.Rerouted != 1 {
		t.Fatalf("report %+v", report)
	}
	newPath, _ := l.CircuitPath(vcid)
	if newPath[1] != alternate {
		t.Fatalf("failover went to %d, want alternate %d", newPath[1], alternate)
	}
	// Traffic flows over the alternate link.
	for k := 0; k < 20; k++ {
		if err := l.Send(vcid, [cell.PayloadSize]byte{}); err != nil {
			t.Fatal(err)
		}
	}
	l.Run(2000)
	hs, _ := l.HostStats(dst)
	if hs.CellsReceived < 20 {
		t.Fatalf("only %d cells after failover", hs.CellsReceived)
	}
}

func TestAccessorsAndUtilization(t *testing.T) {
	l, g := srcLAN(t, 19)
	hosts := g.Hosts()
	vcid, err := l.OpenBestEffort(hosts[0], hosts[1])
	if err != nil {
		t.Fatal(err)
	}
	if l.Slot() != 0 {
		t.Fatalf("Slot = %d before running", l.Slot())
	}
	for k := 0; k < 50; k++ {
		if err := l.Send(vcid, [cell.PayloadSize]byte{}); err != nil {
			t.Fatal(err)
		}
	}
	l.Run(200)
	if l.Slot() != 200 {
		t.Fatalf("Slot = %d, want 200", l.Slot())
	}
	if got := l.NetStats().DeliveredCells; got != 50 {
		t.Fatalf("delivered = %d", got)
	}
	util := l.LinkUtilization()
	if len(util) == 0 {
		t.Fatal("no link utilization recorded")
	}
	for id, u := range util {
		if u < 0 || u > 1 {
			t.Fatalf("link %d utilization %v out of range", id, u)
		}
	}
	if _, ok := l.CircuitPath(99); ok {
		t.Fatal("phantom circuit has a path")
	}
	// Unroutable endpoints are rejected cleanly.
	if _, err := l.OpenBestEffort(hosts[0], 99999); err == nil {
		t.Fatal("unknown destination accepted")
	}
	if _, err := l.Reserve(hosts[0], 99999, 1); err == nil {
		t.Fatal("unknown reservation destination accepted")
	}
}

// Bandwidth accounting must follow circuits across failures: after a
// guaranteed circuit is rerouted by PullPlug, the capacity it holds is
// charged to its NEW path, so admission control stays truthful.
func TestAccountingFollowsReroute(t *testing.T) {
	l, g := srcLAN(t, 13)
	hosts := g.Hosts()
	vcid, err := l.Reserve(hosts[0], hosts[2], 16)
	if err != nil {
		t.Fatal(err)
	}
	path, _ := l.CircuitPath(vcid)
	victim := path[1]
	report, err := l.PullPlug(victim)
	if err != nil {
		t.Fatal(err)
	}
	if report.Rerouted != 1 {
		t.Skipf("circuit was unroutable in this draw: %+v", report)
	}
	newPath, _ := l.CircuitPath(vcid)
	// The host link on the new path must be charged: a second reservation
	// that would over-commit it is denied. Capacity is FrameSlots/2 = 32;
	// 16 held + 17 requested = 49 > 32.
	if _, err := l.Reserve(hosts[0], hosts[2], 17); err == nil {
		t.Fatalf("over-commit on rerouted path %v accepted — accounting did not move", newPath)
	}
	// Closing the circuit frees the new path's capacity.
	if err := l.Close(vcid); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Reserve(hosts[0], hosts[2], 17); err != nil {
		t.Fatalf("capacity not released after close: %v", err)
	}
}

func TestSequentialPlugPulls(t *testing.T) {
	// Pull several plugs in sequence; as long as the switch graph stays
	// connected, the network keeps converging and epochs keep rising.
	l, g := srcLAN(t, 8)
	pulls := 0
	var lastEpoch uint64
	// liveConnected reports whether the live switches remain mutually
	// reachable after also killing victim.
	liveConnected := func(dead map[topology.NodeID]bool) bool {
		var root topology.NodeID = topology.None
		live := 0
		for _, s := range g.Switches() {
			if !dead[s] {
				live++
				if root == topology.None {
					root = s
				}
			}
		}
		if live <= 1 {
			return live == 1
		}
		filter := func(l2 topology.Link) bool {
			return g.SwitchOnly(l2) && !dead[l2.A] && !dead[l2.B]
		}
		level, _ := g.BFS(root, filter, func(n topology.NodeID) bool {
			node, _ := g.Node(n)
			return node.Kind == topology.Switch && !dead[n]
		})
		for _, s := range g.Switches() {
			if !dead[s] && level[s] < 0 {
				return false
			}
		}
		return true
	}
	for _, victim := range g.Switches() {
		if l.deadNodes[victim] {
			continue
		}
		dead := map[topology.NodeID]bool{victim: true}
		for k := range l.deadNodes {
			dead[k] = true
		}
		if !liveConnected(dead) {
			continue
		}
		if _, err := l.PullPlug(victim); err != nil {
			t.Fatalf("pull %d: %v", pulls, err)
		}
		tag := l.LastReconfig().Tag
		if tag.Epoch <= lastEpoch {
			t.Fatalf("epoch did not advance: %d -> %d", lastEpoch, tag.Epoch)
		}
		lastEpoch = tag.Epoch
		pulls++
		if pulls >= 3 {
			break
		}
	}
	if pulls < 2 {
		t.Fatalf("only %d pulls exercised", pulls)
	}
}

// TestBestEffortRefusedThroughMissingPort: the switches of a radix-24
// fat-tree have 24 ports, the LAN's crossbars 16. A cross-pod route into
// pod 20 leaves its spine on port 20, which the crossbar does not have. A
// best-effort circuit over such a route used to be admitted and then lost
// every cell silently at that switch; it must be refused at admission with
// the same typed error the guaranteed path returns, and leave no circuit
// behind.
func TestBestEffortRefusedThroughMissingPort(t *testing.T) {
	g, info, err := topology.FatTree(topology.FatTreeConfig{Radix: 24, Pods: 24})
	if err != nil {
		t.Fatal(err)
	}
	lan, err := New(Config{Topology: g, FrameSlots: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := info.Hosts[0][0], info.Hosts[20][0]
	if _, err := lan.OpenBestEffort(src, dst); !errors.Is(err, schedule.ErrBadPort) {
		t.Fatalf("cross-pod best-effort open: err = %v, want schedule.ErrBadPort", err)
	}
	if _, err := lan.Reserve(src, dst, 1); !errors.Is(err, schedule.ErrBadPort) {
		t.Fatalf("cross-pod guaranteed open: err = %v, want schedule.ErrBadPort", err)
	}
	if got := lan.Circuits(); len(got) != 0 {
		t.Fatalf("refused opens left circuits behind: %v", got)
	}
	// A route that fits the crossbar is still admitted and carries traffic:
	// the first two hosts of an edge switch sit on its ports 12 and 13.
	a, b := info.Hosts[0][0], info.Hosts[0][1]
	vc, err := lan.OpenBestEffort(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := lan.SendPacket(vc, []byte("fits")); err != nil {
		t.Fatal(err)
	}
	lan.Run(20)
	if pkts := lan.Packets(b); len(pkts) != 1 || string(pkts[0]) != "fits" {
		t.Fatalf("in-range circuit delivered %q", pkts)
	}
}
