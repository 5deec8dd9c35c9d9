package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cell"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// Same topology, same seed → the same LAN: the boot reconfiguration adopts
// the identical spanning tree, so every host pair is routed identically.
// The tree is whatever the reconfiguration protocol's "first invitation
// received" makes it, which is why this pins the runner's ordering.
func TestNewIsDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*topology.Graph, error)
	}{
		{"torus-3x3", func() (*topology.Graph, error) { return topology.Torus(3, 3, 1) }},
		{"fat-tree-r8", func() (*topology.Graph, error) {
			g, _, err := topology.FatTree(topology.FatTreeConfig{Radix: 8, Pods: 8})
			return g, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			boot := func() *LAN {
				g, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				l, err := New(Config{Topology: g, FrameSlots: 64, Seed: 42})
				if err != nil {
					t.Fatal(err)
				}
				return l
			}
			a, b := boot(), boot()
			if ta, tb := a.Router().Tree(), b.Router().Tree(); !reflect.DeepEqual(ta, tb) {
				t.Fatalf("boot trees differ: root %d vs %d, levels equal: %v, parents equal: %v",
					ta.Root, tb.Root, reflect.DeepEqual(ta.Level, tb.Level), reflect.DeepEqual(ta.Parent, tb.Parent))
			}
			hosts := a.Topology().Hosts()
			for _, src := range hosts {
				for _, dst := range hosts {
					if src == dst {
						continue
					}
					pa, errA := a.Router().ShortestLegal(src, dst)
					pb, errB := b.Router().ShortestLegal(src, dst)
					if errA != nil || errB != nil {
						t.Fatalf("%d->%d: %v, %v", src, dst, errA, errB)
					}
					if !reflect.DeepEqual(pa, pb) {
						t.Fatalf("%d->%d routed %v by one LAN and %v by the other", src, dst, pa, pb)
					}
				}
			}
		})
	}
}

// Same LAN, same circuits, same victim → the same plug pull: PullPlug
// reroutes in VCI order, so which circuit wins a contested link, where each
// one lands and the order of the trace do not depend on map iteration.
func TestPullPlugDeterministic(t *testing.T) {
	type outcome struct {
		report PlugReport
		paths  map[cell.VCI][]topology.NodeID
		trace  []obs.Event
	}
	pull := func() outcome {
		g, err := topology.SRCLike(rand.New(rand.NewSource(3)), 4, 6, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		tracer := &simnet.CollectTracer{}
		l, err := New(Config{Topology: g, FrameSlots: 64, LinkCapacityCellsPerFrame: 24, Seed: 42, Tracer: tracer})
		if err != nil {
			t.Fatal(err)
		}
		// A circuit per host pair, alternating class; the guaranteed ones
		// are fat enough to contend for links once the victim is gone.
		hosts := g.Hosts()
		for i, src := range hosts {
			for j, dst := range hosts[i+1:] {
				// Errors ignored: a full link refuses, which is as
				// deterministic as a grant.
				if (i+j)%2 == 0 {
					_, _ = l.OpenBestEffort(src, dst)
				} else {
					_, _ = l.Reserve(src, dst, 6)
				}
			}
		}
		// The victim is the switch most circuits pass through.
		through := make(map[topology.NodeID]int)
		for _, vc := range l.Circuits() {
			path, _ := l.CircuitPath(vc)
			for _, n := range path[1 : len(path)-1] {
				through[n]++
			}
		}
		victim := topology.NodeID(-1)
		for _, s := range g.Switches() {
			if victim < 0 || through[s] > through[victim] {
				victim = s
			}
		}
		if through[victim] < 6 {
			t.Fatalf("only %d circuits cross switch %d", through[victim], victim)
		}
		for _, vc := range l.Circuits() {
			if err := l.Send(vc, [cell.PayloadSize]byte{byte(vc)}); err != nil {
				t.Fatal(err)
			}
		}
		l.Run(10)
		report, err := l.PullPlug(victim)
		if err != nil {
			t.Fatal(err)
		}
		l.Run(200)
		out := outcome{report: *report, paths: make(map[cell.VCI][]topology.NodeID), trace: tracer.Events}
		for _, vc := range l.Circuits() {
			out.paths[vc], _ = l.CircuitPath(vc)
		}
		return out
	}
	a, b := pull(), pull()
	if a.report.Rerouted < 6 {
		t.Fatalf("fewer than 6 circuits rerouted: %+v", a.report)
	}
	if a.report != b.report {
		t.Fatalf("plug reports differ: %+v vs %+v", a.report, b.report)
	}
	if !reflect.DeepEqual(a.paths, b.paths) {
		t.Fatalf("circuit paths differ:\n%v\n%v", a.paths, b.paths)
	}
	if !reflect.DeepEqual(a.trace, b.trace) {
		t.Fatalf("traces differ (%d vs %d events)", len(a.trace), len(b.trace))
	}
}
