package simnet

import (
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/routing"
	"repro/internal/switchnode"
	"repro/internal/topology"
)

// mixedLatencyScenario is the golden scenario with links of different
// lengths: a 3×3 torus whose switch links take 3 slots and whose host links
// take 1, carrying 108 best-effort and 12 guaranteed circuits (raw cells and
// multi-cell packets), through a link kill with reroutes around it and back,
// and a switch kill with reroutes and a restore. With one latency every
// in-flight cell sent in slot s lands in slot s+l, so arrival order and send
// order coincide; here they do not, which is what pins the order in which a
// slot's arrivals — and a fault's casualties — are processed.
func mixedLatencyScenario(t *testing.T) trajectory {
	t.Helper()
	g, err := topology.Torus(3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AttachHosts(g, 4, 1); err != nil {
		t.Fatal(err)
	}
	tr := &CollectTracer{}
	n, err := New(Config{
		Topology: g,
		Switch: switchnode.Config{
			Discipline: switchnode.DisciplinePerVC,
			FrameSlots: 32,
			Seed:       99,
		},
		IngressWindow: 8,
		Tracer:        tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	route := func(dead map[topology.LinkID]bool) func(a, b topology.NodeID) []topology.NodeID {
		r, err := routing.NewRouter(g, 0, dead)
		if err != nil {
			t.Fatal(err)
		}
		return func(a, b topology.NodeID) []topology.NodeID {
			p, err := r.ShortestLegal(a, b)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	path := route(nil)

	// Host i sends best-effort to hosts i+5, i+11, i+17 and every third
	// host also holds a guaranteed circuit to host i+7 (all mod 36): no
	// circuit stays on one switch, no host is overloaded.
	type circ struct {
		vc       cell.VCI
		src, dst topology.NodeID
		gtd      bool
	}
	var circs []circ
	vc := cell.VCI(1)
	for i, h := range hosts {
		for _, off := range []int{5, 11, 17} {
			c := circ{vc: vc, src: h, dst: hosts[(i+off)%len(hosts)]}
			if _, err := n.OpenBestEffort(c.vc, path(c.src, c.dst)); err != nil {
				t.Fatal(err)
			}
			circs = append(circs, c)
			vc++
		}
	}
	for i := 0; i < len(hosts); i += 3 {
		c := circ{vc: vc, src: hosts[i], dst: hosts[(i+7)%len(hosts)], gtd: true}
		if _, err := n.OpenGuaranteed(c.vc, path(c.src, c.dst), 2); err != nil {
			t.Fatal(err)
		}
		circs = append(circs, c)
		vc++
	}

	// reroute moves every circuit whose current path the predicate selects
	// onto the router's path, in ascending VCI, then resynchronizes windows.
	reroute := func(pathOf func(a, b topology.NodeID) []topology.NodeID, hit func(p []topology.NodeID) bool) {
		for _, c := range n.Circuits() {
			if !hit(c.Path) {
				continue
			}
			if err := n.Reroute(c.VC, pathOf(c.Path[0], c.Path[len(c.Path)-1])); err != nil {
				t.Fatal(err)
			}
			if err := n.ResyncIngress(c.VC); err != nil {
				t.Fatal(err)
			}
		}
	}
	cut, _ := g.LinkBetween(0, 1)
	crosses := func(p []topology.NodeID) bool {
		for i := 0; i+1 < len(p); i++ {
			if l, ok := g.LinkBetween(p[i], p[i+1]); ok && l.ID == cut.ID {
				return true
			}
		}
		return false
	}
	const victim = topology.NodeID(4)
	transits := func(p []topology.NodeID) bool {
		if len(p) < 5 {
			return false
		}
		for _, s := range p[2 : len(p)-2] {
			if s == victim {
				return true
			}
		}
		return false
	}

	rng := rand.New(rand.NewSource(7))
	var pkt [240]byte
	for slot := 0; slot < 700; slot++ {
		for _, c := range circs {
			switch {
			case c.gtd:
				if slot%16 != int(c.vc)%16 {
					continue
				}
			case rng.Intn(24) != 0:
				continue
			}
			if c.vc%2 == 0 {
				if err := n.Send(c.vc, [cell.PayloadSize]byte{byte(c.vc), byte(slot)}); err != nil {
					t.Fatal(err)
				}
				continue
			}
			size := 40
			if !c.gtd {
				size = rng.Intn(len(pkt))
			}
			pkt[0], pkt[1] = byte(c.vc), byte(slot)
			if err := n.SendPacket(c.vc, pkt[:size]); err != nil {
				t.Fatal(err)
			}
		}
		switch slot {
		case 150:
			n.KillLink(cut.ID)
			reroute(route(map[topology.LinkID]bool{cut.ID: true}), crosses)
		case 300:
			n.RestoreLink(cut.ID)
			reroute(path, func(p []topology.NodeID) bool { return true })
		case 420:
			n.KillSwitch(victim)
			dead := map[topology.LinkID]bool{}
			for _, l := range g.LinksOf(victim) {
				dead[l.ID] = true
			}
			reroute(route(dead), transits)
		case 540:
			n.RestoreSwitch(victim)
			reroute(path, func(p []topology.NodeID) bool { return true })
		}
		n.Step()
		requireEngineInvariant(t, n)
		if s := n.Snapshot(); !s.Conserved() {
			t.Fatalf("slot %d: conservation broken: %+v", slot, s)
		}
	}
	n.Run(400) // drain
	if s := n.Snapshot(); s.InFlight != 0 || s.Lost() == 0 {
		t.Fatalf("scenario lost its coverage: %+v", s)
	}
	return observeTrajectory(n, tr, hosts)
}
