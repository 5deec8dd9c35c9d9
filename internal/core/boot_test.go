package core

import (
	"testing"

	"repro/internal/topology"
)

// BenchmarkNewFatTree24 boots the LAN of bench's fabric_sparse workload: the
// radix-24 two-level fat-tree (720 switches, 3 456 hosts) with 128-slot
// frames. Most of it is the boot reconfiguration, in which every switch
// learns the whole topology.
func BenchmarkNewFatTree24(b *testing.B) {
	g, _, err := topology.FatTree(topology.FatTreeConfig{Radix: 24, Pods: 24})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(Config{Topology: g, FrameSlots: 128}); err != nil {
			b.Fatal(err)
		}
	}
}
