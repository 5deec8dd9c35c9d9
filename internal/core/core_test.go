package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bwcentral"
	"repro/internal/cell"
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

// TestFatTreeAdmitsEveryHostPairClass: a two-layer fat-tree (arXiv
// 1301.6179) is built from radix-r switches and uses every one of their r
// ports, so each crossbar must be r wide. For each host-pair class — same
// edge switch, same pod, across pods — guaranteed circuits are admitted up
// to the host link's capacity, the next is denied for bandwidth and never
// for a port, and every admitted circuit delivers. On r24 each class's
// route crosses a port numbered 16 or higher, which AN2's own 16-port
// switch does not have.
func TestFatTreeAdmitsEveryHostPairClass(t *testing.T) {
	for _, radix := range []int{8, 24} {
		t.Run(fmt.Sprintf("r%d", radix), func(t *testing.T) {
			g, info, err := topology.FatTree(topology.FatTreeConfig{Radix: radix, Pods: radix})
			if err != nil {
				t.Fatal(err)
			}
			const frame, rate = 32, 4
			lan, err := New(Config{Topology: g, FrameSlots: frame, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			h, perEdge := info.Hosts, info.Config.HostsPerEdge
			lastPod, lastHost := len(h)-1, len(h[0])-1
			classes := []struct {
				name     string
				src, dst topology.NodeID
			}{
				{"same edge", h[0][perEdge-2], h[0][perEdge-1]},
				{"same pod", h[1][perEdge-1], h[1][lastHost]},
				{"cross pod", h[0][lastHost], h[lastPod][lastHost]},
			}
			for _, c := range classes {
				var vcs []cell.VCI
				for {
					vc, err := lan.Reserve(c.src, c.dst, rate)
					if err != nil {
						if !errors.Is(err, bwcentral.ErrDenied) {
							t.Fatalf("%s: circuit %d refused: %v, want bwcentral.ErrDenied", c.name, len(vcs)+1, err)
						}
						break
					}
					vcs = append(vcs, vc)
				}
				if want := frame / 2 / rate; len(vcs) != want {
					t.Fatalf("%s: %d circuits of %d cells/frame admitted, want %d (the link capacity)", c.name, len(vcs), rate, want)
				}
				path, _ := lan.CircuitPath(vcs[0])
				if radix > topology.PortsPerSwitch && highestPort(g, path) < topology.PortsPerSwitch {
					t.Fatalf("%s: route %v stays below port %d", c.name, path, topology.PortsPerSwitch)
				}
				for _, vc := range vcs {
					if err := lan.SendPacket(vc, []byte(c.name)); err != nil {
						t.Fatal(err)
					}
				}
			}
			lan.Run(4 * frame)
			for _, c := range classes {
				if pkts := lan.Packets(c.dst); len(pkts) != frame/2/rate || string(pkts[0]) != c.name {
					t.Fatalf("%s: delivered %q", c.name, pkts)
				}
			}
		})
	}
}

// highestPort is the highest switch port the path crosses.
func highestPort(g *topology.Graph, path []topology.NodeID) int {
	top := -1
	for i := 1; i+1 < len(path); i++ {
		in, _ := g.LinkBetween(path[i-1], path[i])
		out, _ := g.LinkBetween(path[i], path[i+1])
		top = max(top, in.PortAt(path[i]), out.PortAt(path[i]))
	}
	return top
}
