package simnet

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/switchnode"
	"repro/internal/topology"
)

func TestPacketLatencyMeasured(t *testing.T) {
	n, _, h1, path := lineNet(t, 2, 1, Config{Switch: switchnode.Config{FrameSlots: 16}})
	if _, err := n.OpenBestEffort(3, path); err != nil {
		t.Fatal(err)
	}
	// 3 packets of ~5 cells each.
	for k := 0; k < 3; k++ {
		if err := n.SendPacket(3, bytes.Repeat([]byte{byte(k)}, 200)); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(300)
	hs, _ := n.HostStats(h1)
	if hs.PacketsReassembled != 3 || hs.PacketsCorrupt != 0 {
		t.Fatalf("packets: %d reassembled, %d corrupt", hs.PacketsReassembled, hs.PacketsCorrupt)
	}
	if hs.PacketLatency.Count() != 3 {
		t.Fatalf("packet latency samples = %d", hs.PacketLatency.Count())
	}
	// A 5-cell packet over 3 links at rate 1 cell/slot: latency is at
	// least cells+hops and far below the run length.
	if hs.PacketLatency.Min() < 5 || hs.PacketLatency.Max() > 100 {
		t.Fatalf("packet latency range [%d,%d] implausible",
			hs.PacketLatency.Min(), hs.PacketLatency.Max())
	}
	// Packet latency >= worst cell latency of its own cells.
	if hs.PacketLatency.Max() < hs.LatencyByClass[cell.BestEffort].Max() {
		t.Fatal("packet latency below cell latency")
	}
}

// Fuzz-style invariant test: random small networks, random circuits,
// random traffic, and random link kills/restores. Invariants: cells are
// conserved (delivered + dropped + in-network <= injected), never
// reordered within a circuit, packets never reassemble corrupt, and the
// stepping engine's sleep invariant holds after every slot.
func TestRandomFaultsPreserveInvariants(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		seed := int64(1000 + trial)
		rng := rand.New(rand.NewSource(seed))
		g, err := topology.RandomConnected(rng, 4+rng.Intn(6), 8, 1+int64(rng.Intn(3)))
		if err != nil {
			t.Fatal(err)
		}
		if err := topology.AttachHosts(g, 1, 1); err != nil {
			t.Fatal(err)
		}
		n, err := New(Config{
			Topology:      g,
			Switch:        switchnode.Config{FrameSlots: 32, Seed: seed},
			IngressWindow: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		hosts := g.Hosts()
		// Open circuits over random simple paths computed by BFS.
		type ckt struct {
			vc  cell.VCI
			src topology.NodeID
			dst topology.NodeID
		}
		var circuits []ckt
		for k := 0; k < 4; k++ {
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			if src == dst {
				continue
			}
			path := bfsPath(g, src, dst)
			if path == nil {
				continue
			}
			vc := cell.VCI(k + 1)
			if _, err := n.OpenBestEffort(vc, path); err != nil {
				continue
			}
			circuits = append(circuits, ckt{vc, src, dst})
		}
		if len(circuits) == 0 {
			continue
		}
		links := g.Links()
		injected := int64(0)
		for s := 0; s < 3000; s++ {
			if rng.Float64() < 0.3 {
				c := circuits[rng.Intn(len(circuits))]
				if err := n.Send(c.vc, [cell.PayloadSize]byte{byte(s)}); err != nil {
					t.Fatal(err)
				}
				injected++
			}
			// Random link churn (rare).
			if rng.Float64() < 0.002 {
				l := links[rng.Intn(len(links))]
				if rng.Float64() < 0.5 {
					n.KillLink(l.ID)
				} else {
					n.RestoreLink(l.ID)
				}
			}
			n.Step()
			requireEngineInvariant(t, n)
		}
		// Restore everything and drain.
		for _, l := range links {
			n.RestoreLink(l.ID)
		}
		n.Run(5000)

		st := n.Stats()
		var delivered, ooo int64
		for _, h := range hosts {
			if hs, ok := n.HostStats(h); ok {
				delivered += hs.CellsReceived
				ooo += hs.OutOfOrder
				if hs.PacketsCorrupt != 0 {
					t.Fatalf("trial %d: corrupt packets", trial)
				}
			}
		}
		var vcs []cell.VCI
		for _, c := range circuits {
			vcs = append(vcs, c.vc)
		}
		accounted := delivered + st.DroppedInFlight + st.DroppedReroute +
			int64(n.TotalBestEffortBacklog()) + pendingAtSources(n, vcs)
		if accounted > injected {
			t.Fatalf("trial %d: accounted %d > injected %d (cells duplicated?)",
				trial, accounted, injected)
		}
		// With drops, sequence gaps are legitimate; ordering violations
		// (earlier seq after later) are counted as OutOfOrder only when
		// seq goes backwards... the simnet check flags any gap, so only
		// assert zero when nothing was dropped.
		if st.DroppedInFlight == 0 && ooo != 0 {
			t.Fatalf("trial %d: %d out-of-order with no drops", trial, ooo)
		}
	}
}

func pendingAtSources(n *Network, vcs []cell.VCI) int64 {
	var total int64
	for _, vc := range vcs {
		if ci, err := n.find(vc); err == nil {
			// pending cells wait at the source; inUse is window
			// bookkeeping for cells already accounted elsewhere.
			total += int64(ci.queued())
		}
	}
	return total
}

// bfsPath finds a host-switch...-host path.
func bfsPath(g *topology.Graph, src, dst topology.NodeID) []topology.NodeID {
	level, _ := g.BFS(src, nil, nil)
	if level[dst] < 0 {
		return nil
	}
	// Walk back from dst.
	path := []topology.NodeID{dst}
	cur := dst
	for cur != src {
		found := false
		for _, nb := range g.Neighbors(cur) {
			if level[nb] == level[cur]-1 {
				path = append(path, nb)
				cur = nb
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}
	// Reverse.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	// Must be host, switches..., host with length >= 3.
	if len(path) < 3 {
		return nil
	}
	return path
}
