package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cell"
	"repro/internal/routing"
	"repro/internal/topology"
)

// churnLAN builds the LAN the svc_churn benchmark workload serves: a 4×4
// torus with three hosts per switch and a 128-slot frame.
func churnLAN(tb testing.TB) (*LAN, []topology.NodeID) {
	tb.Helper()
	g, err := topology.Torus(4, 4, 10)
	if err != nil {
		tb.Fatal(err)
	}
	if err := topology.AttachHosts(g, 3, 1); err != nil {
		tb.Fatal(err)
	}
	l, err := New(Config{Topology: g, FrameSlots: 128})
	if err != nil {
		tb.Fatal(err)
	}
	return l, g.Hosts()
}

// hostPairs draws n ordered pairs of distinct hosts.
func hostPairs(hosts []topology.NodeID, n int) [][2]topology.NodeID {
	rng := rand.New(rand.NewSource(24))
	out := make([][2]topology.NodeID, n)
	for i := range out {
		a := rng.Intn(len(hosts))
		b := (a + 1 + rng.Intn(len(hosts)-1)) % len(hosts)
		out[i] = [2]topology.NodeID{hosts[a], hosts[b]}
	}
	return out
}

// TestAdmitAllocationBudget pins the set-up path's allocations once every
// source switch has been asked for a route: what is left is what a circuit
// owns (its path, its hops, its records), not what a search scribbles on.
// Before the route forests an open+close between random hosts cost ≈80.
func TestAdmitAllocationBudget(t *testing.T) {
	l, hosts := churnLAN(t)
	pairs := hostPairs(hosts, 256)
	cycle := func(open func(a, b topology.NodeID) (cell.VCI, error)) func() {
		i := 0
		return func() {
			p := pairs[i%len(pairs)]
			i++
			vc, err := open(p[0], p[1])
			if err == nil {
				err = l.Close(vc)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	bestEffort := cycle(l.OpenBestEffort)
	guaranteed := cycle(func(a, b topology.NodeID) (cell.VCI, error) { return l.Reserve(a, b, 1) })
	for i := 0; i < 2*len(pairs); i++ { // grow every forest, size every scratch
		bestEffort()
		guaranteed()
	}
	if got := testing.AllocsPerRun(500, bestEffort); got > 12 {
		t.Errorf("OpenBestEffort+Close: %.1f allocs, budget 12", got)
	}
	if got := testing.AllocsPerRun(500, guaranteed); got > 7 {
		t.Errorf("Reserve+Close: %.1f allocs, budget 7", got)
	}
}

// TestRoutesFollowReconfigure checks that a reconfiguration starts a new
// routing epoch: every source switch has a cached forest when the plug is
// pulled, and afterwards no new circuit, best-effort or guaranteed, crosses
// the dead switch, while routes that avoided it are found again. The
// mutation case puts the previous epoch's router back and must see a route
// through the victim — which is what reusing a router across Reconfigure
// would do.
func TestRoutesFollowReconfigure(t *testing.T) {
	l, hosts := churnLAN(t)
	const victim = topology.NodeID(5)
	var live []topology.NodeID
	for _, h := range hosts {
		if _, onVictim := l.g.LinkBetween(h, victim); !onVictim {
			live = append(live, h)
		}
	}
	if len(live) != len(hosts)-3 {
		t.Fatalf("%d of %d hosts off the victim, want all but 3", len(live), len(hosts))
	}
	crossing := func(r *routing.Router) (n int) {
		for _, a := range live {
			for _, b := range live {
				if p, err := r.ShortestLegal(a, b); err == nil && slices.Contains(p, victim) {
					n++
				}
			}
		}
		return n
	}
	old := l.Router()
	if crossing(old) == 0 { // also caches every source in the old epoch
		t.Fatal("no route crosses the victim before the fault: the test would prove nothing")
	}
	if _, err := l.PullPlug(victim); err != nil {
		t.Fatal(err)
	}
	if l.Router() == old {
		t.Fatal("Reconfigure kept the previous epoch's router")
	}
	for i, p := range hostPairs(live, 200) {
		var err error
		if i%2 == 0 {
			_, err = l.OpenBestEffort(p[0], p[1])
		} else {
			_, err = l.Reserve(p[0], p[1], 1)
		}
		if err != nil {
			t.Fatalf("open %d (%d->%d) after the fault: %v", i, p[0], p[1], err)
		}
	}
	for _, vc := range l.Circuits() {
		if p, _ := l.CircuitPath(vc); slices.Contains(p, victim) {
			t.Fatalf("circuit %d opened after the fault crosses dead switch %d: %v", vc, victim, p)
		}
	}
	if n := crossing(l.Router()); n != 0 {
		t.Fatalf("%d routes of the new epoch cross the dead switch", n)
	}

	// Mutation: a router reused across Reconfigure serves its cached
	// forests, dead switch and all.
	l.router = old
	if crossing(l.Router()) == 0 {
		t.Fatal("the previous epoch's router no longer routes through the victim: the check above cannot fail")
	}
}

// benchmarkAdmit times open+close on the svc_churn LAN with every forest warm.
func benchmarkAdmit(b *testing.B, open func(l *LAN, src, dst topology.NodeID) (cell.VCI, error)) {
	l, hosts := churnLAN(b)
	pairs := hostPairs(hosts, 1024)
	cycle := func(p [2]topology.NodeID) {
		vc, err := open(l, p[0], p[1])
		if err == nil {
			err = l.Close(vc)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pairs {
		cycle(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(pairs[i%len(pairs)])
	}
}

func BenchmarkAdmitBestEffort(b *testing.B) {
	benchmarkAdmit(b, (*LAN).OpenBestEffort)
}

// BenchmarkAdmitGuaranteed reserves one cell per frame.
func BenchmarkAdmitGuaranteed(b *testing.B) {
	benchmarkAdmit(b, func(l *LAN, src, dst topology.NodeID) (cell.VCI, error) { return l.Reserve(src, dst, 1) })
}
