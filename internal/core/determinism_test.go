package core

import (
	"reflect"
	"testing"

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
