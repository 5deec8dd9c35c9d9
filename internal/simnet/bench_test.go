package simnet

import (
	"testing"

	"repro/internal/cell"
	"repro/internal/switchnode"
	"repro/internal/topology"
)

// saturatedLine builds an 8-switch line with hosts at both ends and eight
// best-effort circuits sharing it, warmed until every switch is busy. fill
// queues one cell per circuit at the source host — one slot's offered load.
func saturatedLine(tb testing.TB) (n *Network, fill func()) {
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
			_ = n.Send(vc, [cell.PayloadSize]byte{byte(vc)})
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
	n, fill := saturatedLine(b)
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
// delivery, eight busy switches, departures and credit return.
func TestStepAllocationFree(t *testing.T) {
	n, fill := saturatedLine(t)
	const runs = 200
	for i := 0; i < runs+1; i++ { // AllocsPerRun makes one warm-up call
		fill()
	}
	if allocs := testing.AllocsPerRun(runs, n.Step); allocs != 0 {
		t.Fatalf("Network.Step allocates %.0f times per slot at steady state, want 0", allocs)
	}
	if n.Stats().DeliveredCells == 0 {
		t.Fatal("nothing delivered — the measured slots did no work")
	}
}
