package simnet

import (
	"fmt"
	"testing"

	"repro/internal/cell"
	"repro/internal/switchnode"
	"repro/internal/topology"
)

// saturatedLine builds an 8-switch line with hosts at both ends and eight
// best-effort circuits sharing it, warmed until every switch is busy. fill
// queues one cell per circuit at the source host — one slot's offered load —
// as a raw cell, or as a one-cell packet when packets is set.
func saturatedLine(tb testing.TB, packets bool) (n *Network, fill func()) {
	tb.Helper()
	g, err := topology.Line(8, 1)
	if err != nil {
		tb.Fatal(err)
	}
	h0 := g.AddHost("h0")
	h1 := g.AddHost("h1")
	if _, err := g.Connect(h0, 0, 1); err != nil {
		tb.Fatal(err)
	}
	if _, err := g.Connect(h1, 7, 1); err != nil {
		tb.Fatal(err)
	}
	n, err = New(Config{
		Topology: g,
		Switch: switchnode.Config{
			N:          8,
			Discipline: switchnode.DisciplinePerVC,
			FrameSlots: 16,
			Seed:       1,
		},
		IngressWindow: 16,
	})
	if err != nil {
		tb.Fatal(err)
	}
	path := []topology.NodeID{h0, 0, 1, 2, 3, 4, 5, 6, 7, h1}
	for vc := cell.VCI(1); vc <= 8; vc++ {
		if _, err := n.OpenBestEffort(vc, path); err != nil {
			tb.Fatal(err)
		}
	}
	fill = func() {
		for vc := cell.VCI(1); vc <= 8; vc++ {
			if packets {
				_ = n.SendPacket(vc, []byte{byte(vc)})
			} else {
				_ = n.Send(vc, [cell.PayloadSize]byte{byte(vc)})
			}
		}
	}
	for i := 0; i < 32; i++ {
		fill()
		n.Step()
	}
	return n, fill
}

// BenchmarkNetworkStep measures one slot of the saturated line, source
// queueing included.
func BenchmarkNetworkStep(b *testing.B) {
	n, fill := saturatedLine(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill()
		n.Step()
	}
}

// TestStepAllocationFree pins Network.Step at zero allocations per slot at
// steady state: the saturated line with every slot's cells queued at the
// sources beforehand, so the measured call is Step alone — injection,
// delivery, eight busy switches, departures and credit return. With packets
// instead of raw cells the destination also reassembles; the allocation
// allowed per reassembled packet is the copy Packets hands out (in practice
// far fewer: the copies share slabs).
func TestStepAllocationFree(t *testing.T) {
	for _, packets := range []bool{false, true} {
		n, fill := saturatedLine(t, packets)
		const runs = 200
		for i := 0; i < runs+1; i++ { // AllocsPerRun makes one warm-up call
			fill()
		}
		hs, _ := n.HostStats(n.g.Hosts()[1])
		delivered, reassembled := n.Stats().DeliveredCells, hs.PacketsReassembled
		allocs := testing.AllocsPerRun(runs, n.Step)
		delivered, reassembled = n.Stats().DeliveredCells-delivered, hs.PacketsReassembled-reassembled
		if delivered == 0 {
			t.Fatal("nothing delivered — the measured slots did no work")
		}
		if packets {
			if reassembled != runs+1 || allocs > 1 {
				t.Fatalf("Step allocates %.0f times per slot delivering %d packets in %d slots, want at most 1 per packet", allocs, reassembled, runs+1)
			}
		} else if allocs != 0 {
			t.Fatalf("Network.Step allocates %.0f times per slot at steady state, want 0", allocs)
		}
	}
}

// BenchmarkNetworkStepIdleCircuits measures one slot of the line carrying
// what it can — four active circuits taking turns, one cell a slot — with 0
// and with 10 000 idle circuits open beside them: the two arms must cost the
// same (ROADMAP's 10 k-idle-VC rung).
func BenchmarkNetworkStepIdleCircuits(b *testing.B) {
	for _, idle := range []int{0, 10000} {
		b.Run(fmt.Sprintf("idle=%d", idle), func(b *testing.B) {
			n, _ := saturatedLine(b, false)
			n.Run(512) // drain the warm-up backlog
			for i := 0; i < idle; i++ {
				if _, err := n.OpenBestEffort(cell.VCI(100+i), n.circOrder[0].c.Path); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = n.Send(cell.VCI(1+i%4), [cell.PayloadSize]byte{byte(i)})
				n.Step()
			}
		})
	}
}
