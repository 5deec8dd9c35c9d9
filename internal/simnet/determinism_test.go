package simnet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cell"
	"repro/internal/routing"
	"repro/internal/switchnode"
	"repro/internal/topology"
)

// trajectory is everything observable from one scenario run: the full
// event trace, network counters, per-circuit delivered cells, the stats of
// the hosts the scenario names, and link utilization. Two runs are "the
// same" iff all of it matches.
type trajectory struct {
	events []TraceEvent
	net    NetStats
	byVC   map[cell.VCI]int64
	hosts  []HostStats
	util   map[topology.LinkID]float64
}

// observeTrajectory collects a finished run's observables.
func observeTrajectory(n *Network, tr *CollectTracer, hosts []topology.NodeID) trajectory {
	res := trajectory{
		events: tr.Events,
		net:    n.Stats(),
		byVC:   make(map[cell.VCI]int64),
		util:   n.LinkUtilization(),
	}
	for _, c := range n.Circuits() {
		res.byVC[c.VC] = n.DeliveredByVC(c.VC)
	}
	for _, id := range hosts {
		hs, _ := n.HostStats(id)
		res.hosts = append(res.hosts, *hs)
	}
	return res
}

// hash digests the trajectory in a canonical order (maps sorted by key,
// latency histograms sample by sample).
func (tr trajectory) hash() string {
	h := sha256.New()
	for _, ev := range tr.events {
		fmt.Fprintf(h, "%+v\n", ev)
	}
	fmt.Fprintf(h, "net %+v\n", tr.net)
	vcs := make([]cell.VCI, 0, len(tr.byVC))
	for vc := range tr.byVC {
		vcs = append(vcs, vc)
	}
	sort.Slice(vcs, func(i, j int) bool { return vcs[i] < vcs[j] })
	for _, vc := range vcs {
		fmt.Fprintf(h, "vc %d delivered %d\n", vc, tr.byVC[vc])
	}
	for i, hs := range tr.hosts {
		fmt.Fprintf(h, "host %d sent %d recv %d ooo %d pkts %d corrupt %d pktlat %v\n", i,
			hs.CellsSent, hs.CellsReceived, hs.OutOfOrder, hs.PacketsReassembled,
			hs.PacketsCorrupt, hs.PacketLatency.Tail(0))
		for _, class := range []cell.Class{cell.BestEffort, cell.Guaranteed} {
			fmt.Fprintf(h, "  class %d lat %v\n", class, hs.LatencyByClass[class].Tail(0))
		}
	}
	links := make([]topology.LinkID, 0, len(tr.util))
	for id := range tr.util {
		links = append(links, id)
	}
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
	for _, id := range links {
		fmt.Fprintf(h, "link %d util %.9f\n", id, tr.util[id])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// lineScenario drives a fixed mixed workload — bursty best-effort circuits
// in both directions, a paced guaranteed circuit, and a mid-run link
// failure — over a 6-switch line.
func lineScenario(t *testing.T) trajectory {
	t.Helper()
	tr := &CollectTracer{}
	n, h0, h1, path := lineNet(t, 6, 1, Config{
		Switch: switchnode.Config{
			N:          8,
			Discipline: switchnode.DisciplinePerVC,
			FrameSlots: 16,
			Seed:       99,
		},
		IngressWindow: 8,
		Tracer:        tr,
	})
	rev := make([]topology.NodeID, len(path))
	for i, id := range path {
		rev[len(path)-1-i] = id
	}
	for vc := cell.VCI(1); vc <= 4; vc++ {
		if _, err := n.OpenBestEffort(vc, path); err != nil {
			t.Fatal(err)
		}
	}
	for vc := cell.VCI(5); vc <= 7; vc++ {
		if _, err := n.OpenBestEffort(vc, rev); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.OpenGuaranteed(10, path, 4); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for slot := 0; slot < 400; slot++ {
		for vc := cell.VCI(1); vc <= 7; vc++ {
			if rng.Intn(3) == 0 {
				if err := n.Send(vc, [cell.PayloadSize]byte{byte(vc), byte(slot)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if slot%5 == 0 {
			if err := n.Send(10, [cell.PayloadSize]byte{0x47, byte(slot)}); err != nil {
				t.Fatal(err)
			}
		}
		if slot == 150 {
			link, _ := n.g.LinkBetween(path[2], path[3])
			n.KillLink(link.ID)
		}
		if slot == 180 {
			link, _ := n.g.LinkBetween(path[2], path[3])
			n.RestoreLink(link.ID)
		}
		n.Step()
		requireEngineInvariant(t, n)
	}
	n.Run(200) // drain
	return observeTrajectory(n, tr, []topology.NodeID{h0, h1})
}

// fatTreeNet builds a fat-tree network with a collecting tracer and
// returns a shortest-legal-path helper over it.
func fatTreeNet(t *testing.T, ft topology.FatTreeConfig, n int) (*Network, *CollectTracer, *topology.Graph, *topology.FatTreeInfo, func(a, b topology.NodeID) []topology.NodeID) {
	t.Helper()
	g, info, err := topology.FatTree(ft)
	if err != nil {
		t.Fatal(err)
	}
	tr := &CollectTracer{}
	net, err := New(Config{
		Topology: g,
		Switch: switchnode.Config{
			N:          n,
			Discipline: switchnode.DisciplinePerVC,
			FrameSlots: 16,
			Seed:       99,
		},
		IngressWindow: 8,
		Tracer:        tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	router, err := routing.NewRouter(g, info.Root, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := func(a, b topology.NodeID) []topology.NodeID {
		p, err := router.ShortestLegal(a, b)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return net, tr, g, info, path
}

// podIdleScenario drives a fixed workload over a radix-6 / 3-pod fat-tree:
// intra-pod and cross-pod best-effort circuits, a paced guaranteed circuit,
// and a mid-run intra-pod link failure. Pod 2 carries no traffic, so its
// switches sleep for the whole run — IdleStepsSkipped in the golden hash
// pins that lazy clock settlement credits exactly the slots per-slot idle
// stepping did.
func podIdleScenario(t *testing.T) trajectory {
	t.Helper()
	n, tr, g, info, path := fatTreeNet(t, topology.FatTreeConfig{Radix: 6, Pods: 3, HostsPerEdge: 1}, 6)
	// Traffic stays within pods 0 and 1 (and the spines); pod 2 is idle.
	h := func(pod, i int) topology.NodeID { return info.Hosts[pod][i] }
	ends := [][2]topology.NodeID{
		{h(0, 0), h(0, 1)}, // intra-pod 0
		{h(0, 1), h(1, 0)}, // cross-pod 0 -> 1
		{h(1, 2), h(0, 2)}, // cross-pod 1 -> 0
		{h(1, 0), h(1, 1)}, // intra-pod 1
	}
	for i, e := range ends {
		if _, err := n.OpenBestEffort(cell.VCI(i+1), path(e[0], e[1])); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.OpenGuaranteed(10, path(h(0, 0), h(1, 2)), 4); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for slot := 0; slot < 400; slot++ {
		for vc := cell.VCI(1); vc <= 4; vc++ {
			if rng.Intn(3) == 0 {
				if err := n.Send(vc, [cell.PayloadSize]byte{byte(vc), byte(slot)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if slot%5 == 0 {
			if err := n.Send(10, [cell.PayloadSize]byte{0x47, byte(slot)}); err != nil {
				t.Fatal(err)
			}
		}
		if slot == 150 {
			link, _ := g.LinkBetween(info.Edges[0][0], info.Aggs[0][0])
			n.KillLink(link.ID)
		}
		if slot == 250 {
			link, _ := g.LinkBetween(info.Edges[0][0], info.Aggs[0][0])
			n.RestoreLink(link.ID)
		}
		n.Step()
		requireEngineInvariant(t, n)
	}
	n.Run(200) // drain
	var hosts []topology.NodeID
	for _, e := range ends {
		hosts = append(hosts, e[0], e[1])
	}
	return observeTrajectory(n, tr, hosts)
}

// radix16Scenario drives a radix-16 four-pod fat-tree (80 switches: 8
// edges + 4 aggs per pod plus 32 spines, most of them idle) through
// traffic, a switch failure with a circuit reroute around it, and a
// restore with a reroute back — the fault + reconfig torture case, where
// sleeping switches must be woken by reservations, kills, restores and
// rerouted arrivals alike.
func radix16Scenario(t *testing.T) trajectory {
	t.Helper()
	n, tr, g, info, path := fatTreeNet(t, topology.FatTreeConfig{Radix: 16, Pods: 4, HostsPerEdge: 4}, 16)
	h := func(pod, i int) topology.NodeID { return info.Hosts[pod][i] }
	// Cross-pod best-effort pair plus an intra-pod guaranteed circuit;
	// pods 2 and 3 stay idle throughout.
	beVC := cell.VCI(1)
	bePath := path(h(0, 0), h(1, 0))
	if _, err := n.OpenBestEffort(beVC, bePath); err != nil {
		t.Fatal(err)
	}
	if _, err := n.OpenBestEffort(2, path(h(1, 1), h(0, 1))); err != nil {
		t.Fatal(err)
	}
	if _, err := n.OpenGuaranteed(10, path(h(0, 0), h(0, 2)), 4); err != nil {
		t.Fatal(err)
	}
	// The aggregation switch the cross-pod path climbs through; killing it
	// forces a reroute through a sibling agg (and different spine).
	victim := bePath[2]
	rng := rand.New(rand.NewSource(7))
	for slot := 0; slot < 300; slot++ {
		for vc := cell.VCI(1); vc <= 2; vc++ {
			if rng.Intn(3) == 0 {
				if err := n.Send(vc, [cell.PayloadSize]byte{byte(vc), byte(slot)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if slot%5 == 0 {
			if err := n.Send(10, [cell.PayloadSize]byte{0x47, byte(slot)}); err != nil {
				t.Fatal(err)
			}
		}
		switch slot {
		case 100:
			n.KillSwitch(victim)
			dead := map[topology.LinkID]bool{}
			for _, l := range g.LinksOf(victim) {
				dead[l.ID] = true
			}
			r2, err := routing.NewRouter(g, info.Root, dead)
			if err != nil {
				t.Fatal(err)
			}
			alt, err := r2.ShortestLegal(h(0, 0), h(1, 0))
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Reroute(beVC, alt); err != nil {
				t.Fatal(err)
			}
		case 200:
			n.RestoreSwitch(victim)
			if err := n.Reroute(beVC, bePath); err != nil {
				t.Fatal(err)
			}
		}
		n.Step()
		requireEngineInvariant(t, n)
	}
	n.Run(200) // drain
	return observeTrajectory(n, tr, []topology.NodeID{h(0, 0), h(0, 1), h(0, 2), h(1, 0), h(1, 1)})
}

// TestGoldenTrajectories is the oracle that survived the flat engine's
// deletion. The hashes were captured from this file's scenarios at parent
// commit 1681f3a (PR 12) running the flat engine — event-driven stepping
// off, no step groups, one worker (GOMAXPROCS=1), i.e. every live switch
// visited every slot, quiescent ones through StepIdle — where PR 7's
// engine-vs-engine tests (TestWakeSetMatchesFlat, …PodSharded,
// TestWakeSetRadix16FaultReconfig, TestParallelStepMatchesSequential…)
// had pinned flat, wake-set, grouped and parallel stepping byte-identical
// on exactly these scenarios. The single engine must land on the same
// traces, NetStats (IdleStepsSkipped included), per-VC delivered counts,
// host stats and link utilization. The fourth scenario (mixedlatency_test.go)
// was captured the same way at parent commit 8180892 (PR 20), before links
// became arrival-slot calendars: it is the one where send order and arrival
// order differ.
func TestGoldenTrajectories(t *testing.T) {
	for _, tc := range []struct {
		name   string
		run    func(*testing.T) trajectory
		golden string
		// minIdle guards the scenario's idle-path coverage.
		minIdle int64
	}{
		{"line-mixed-linkfault", lineScenario, "c07b4580a5b296673924a9dd21420c49", 0},
		{"fattree-r6-idle-pod", podIdleScenario, "c32f643ae808106c4f254367ea067f04", 1},
		{"fattree-r16-kill-reroute-restore", radix16Scenario, "fad8173e232ee3048642f301133b9ee5", 1},
		{"torus-mixed-latency-faults", mixedLatencyScenario, "b2eb2c88e1745c58f19396bf39f215c4", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run(t)
			if got.net.IdleStepsSkipped < tc.minIdle {
				t.Fatal("no idle switch-slots counted — scenario lost its idle-path coverage")
			}
			if h := got.hash(); h != tc.golden {
				t.Fatalf("trajectory hash %s, golden %s (%d events, %+v)", h, tc.golden, len(got.events), got.net)
			}
		})
	}
}

// TestSameSeedRepeatable runs the identical scenario twice and requires
// identical observable behaviour — the regression test for the
// map-iteration nondeterminism the sorted switchOrder/circOrder slices
// replace.
func TestSameSeedRepeatable(t *testing.T) {
	a, b := lineScenario(t), lineScenario(t)
	if !reflect.DeepEqual(a.events, b.events) {
		t.Fatalf("same-seed runs traced differently (%d vs %d events)", len(a.events), len(b.events))
	}
	if a.net != b.net {
		t.Fatalf("same-seed net stats differ: %+v vs %+v", a.net, b.net)
	}
	if !reflect.DeepEqual(a.hosts, b.hosts) {
		t.Fatal("same-seed host stats differ")
	}
	if !reflect.DeepEqual(a.util, b.util) || !reflect.DeepEqual(a.byVC, b.byVC) {
		t.Fatal("same-seed link utilization or per-VC delivery differs")
	}
}
