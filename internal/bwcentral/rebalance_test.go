package bwcentral

import (
	"testing"

	"repro/internal/topology"
)

func TestMaxLoadAndHottest(t *testing.T) {
	g, h0, h1 := diamond(t)
	c := central(t, g, 100, MinHop)
	if c.MaxLoad() != 0 || c.hottestLink() != -1 {
		t.Fatal("empty central has load")
	}
	if _, err := c.Request(h0, h1, 10); err != nil {
		t.Fatal(err)
	}
	if c.MaxLoad() != 10 {
		t.Fatalf("MaxLoad = %d", c.MaxLoad())
	}
	if c.hottestLink() < 0 {
		t.Fatal("no hottest link")
	}
}

func TestRebalanceMovesCircuitsOffHotSide(t *testing.T) {
	// Diamond between switches a(0) and d(3): MinHop piles circuits onto
	// one 2-hop side until it saturates. Rebalance should spread them.
	g, _, _ := diamond(t)
	a, d := topology.NodeID(0), topology.NodeID(3)
	c := central(t, g, 100, MinHop)
	for k := 0; k < 4; k++ {
		if _, err := c.Request(a, d, 20); err != nil {
			t.Fatal(err)
		}
	}
	// MinHop + deterministic tie-break piles all four onto one side.
	if c.MaxLoad() != 80 {
		t.Fatalf("precondition: MaxLoad = %d, want 80 (all on one side)", c.MaxLoad())
	}
	moves := c.Rebalance(10)
	if len(moves) == 0 {
		t.Fatal("no rebalancing moves found")
	}
	if got := c.MaxLoad(); got != 40 {
		t.Fatalf("after rebalance MaxLoad = %d, want 40 (even split)", got)
	}
	for _, mv := range moves {
		if mv.MaxLoadAfter >= mv.MaxLoadBefore {
			t.Fatalf("non-improving move recorded: %+v", mv)
		}
		if len(mv.NewPath) == 0 || mv.VC == 0 {
			t.Fatalf("malformed move %+v", mv)
		}
	}
	// A second rebalance finds nothing further.
	if more := c.Rebalance(10); len(more) != 0 {
		t.Fatalf("rebalance not idempotent: %d extra moves", len(more))
	}
}

func TestRebalanceRespectsBudget(t *testing.T) {
	g, _, _ := diamond(t)
	a, d := topology.NodeID(0), topology.NodeID(3)
	c := central(t, g, 100, MinHop)
	for k := 0; k < 4; k++ {
		if _, err := c.Request(a, d, 20); err != nil {
			t.Fatal(err)
		}
	}
	moves := c.Rebalance(1)
	if len(moves) != 1 {
		t.Fatalf("budget 1 produced %d moves", len(moves))
	}
}

func TestRebalancePreservesAccounting(t *testing.T) {
	g, _, _ := diamond(t)
	a, d := topology.NodeID(0), topology.NodeID(3)
	c := central(t, g, 100, MinHop)
	var vcs []*Reservation
	for k := 0; k < 4; k++ {
		res, err := c.Request(a, d, 15)
		if err != nil {
			t.Fatal(err)
		}
		vcs = append(vcs, res)
	}
	c.Rebalance(10)
	// Total reserved bandwidth is conserved: releasing everything
	// returns every link to zero.
	for _, res := range vcs {
		if err := c.Release(res.VC); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range g.Links() {
		if c.reserved[l.ID] != 0 {
			t.Fatalf("link %d retains %d after full release", l.ID, c.reserved[l.ID])
		}
	}
}

func TestRebalanceNoopWhenBalanced(t *testing.T) {
	g, _, _ := diamond(t)
	a, d := topology.NodeID(0), topology.NodeID(3)
	c := central(t, g, 100, LeastLoaded) // already balances on admission
	for k := 0; k < 4; k++ {
		if _, err := c.Request(a, d, 20); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.MaxLoad(); got != 40 {
		t.Fatalf("least-loaded admission gave MaxLoad %d", got)
	}
	if moves := c.Rebalance(10); len(moves) != 0 {
		t.Fatalf("balanced network produced %d moves", len(moves))
	}
}
