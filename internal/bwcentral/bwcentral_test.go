package bwcentral

import (
	"errors"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// diamond builds h0 - a - {b|c} - d - h1 with unit latency.
func diamond(t *testing.T) (*topology.Graph, topology.NodeID, topology.NodeID) {
	t.Helper()
	g := topology.New()
	a := g.AddSwitch("a")
	b := g.AddSwitch("b")
	c := g.AddSwitch("c")
	d := g.AddSwitch("d")
	for _, pr := range [][2]topology.NodeID{{a, b}, {a, c}, {b, d}, {c, d}} {
		if _, err := g.Connect(pr[0], pr[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	h0 := g.AddHost("h0")
	h1 := g.AddHost("h1")
	if _, err := g.Connect(h0, a, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(h1, d, 1); err != nil {
		t.Fatal(err)
	}
	return g, h0, h1
}

func central(t *testing.T, g *topology.Graph, cap_ int, policy Policy) *Central {
	t.Helper()
	r, err := routing.NewRouter(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Topology: g, Router: r, LinkCapacity: cap_, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("err = %v", err)
	}
	g, _, _ := diamond(t)
	r, err := routing.NewRouter(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Topology: g, Router: r, LinkCapacity: 0}); !errors.Is(err, ErrConfig) {
		t.Fatalf("zero capacity err = %v", err)
	}
}

func TestGrantAndRelease(t *testing.T) {
	g, h0, h1 := diamond(t)
	c := central(t, g, 100, MinHop)
	res, err := c.Request(h0, h1, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.VC == 0 || len(res.Path) != 5 || len(res.Links) != 4 {
		t.Fatalf("reservation = %+v", res)
	}
	for _, id := range res.Links {
		if c.reserved[id] != 30 {
			t.Fatalf("link %d accounting wrong", id)
		}
	}
	if err := c.Release(res.VC); err != nil {
		t.Fatal(err)
	}
	for _, id := range res.Links {
		if c.reserved[id] != 0 {
			t.Fatal("release did not return bandwidth")
		}
	}
	if err := c.Release(res.VC); !errors.Is(err, ErrUnknown) {
		t.Fatalf("double release err = %v", err)
	}
	st := c.Stats()
	if st.Granted != 1 || st.Denied != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDenialWhenSaturated(t *testing.T) {
	g, h0, h1 := diamond(t)
	c := central(t, g, 10, MinHop)
	// The host links are the bottleneck: two 5-cell circuits fill them.
	if _, err := c.Request(h0, h1, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request(h0, h1, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request(h0, h1, 1); !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v, want ErrDenied", err)
	}
	if got := c.Stats().Denied; got != 1 {
		t.Fatalf("denied = %d", got)
	}
	if _, err := c.Request(h0, h1, 0); !errors.Is(err, ErrBadRate) {
		t.Fatalf("rate 0 err = %v", err)
	}
}

func TestLeastLoadedSpreadsCircuits(t *testing.T) {
	// Switch-to-switch requests through the diamond: MinHop may pile both
	// 2-hop paths' traffic on one side; LeastLoaded must use both sides.
	g, _, _ := diamond(t)
	a, d := topology.NodeID(0), topology.NodeID(3)
	// Use switch endpoints so the shared host links don't bottleneck.
	c := central(t, g, 10, LeastLoaded)
	sides := map[topology.NodeID]int{}
	for k := 0; k < 4; k++ {
		res, err := c.Request(a, d, 4)
		if err != nil {
			t.Fatalf("request %d: %v", k, err)
		}
		if len(res.Path) != 3 {
			t.Fatalf("path %v not 2-hop", res.Path)
		}
		sides[res.Path[1]]++
	}
	if len(sides) != 2 || sides[1] != 2 || sides[2] != 2 {
		t.Fatalf("least-loaded did not balance: %v", sides)
	}
	// MinHop with the same demand saturates one side after 2 circuits but
	// still succeeds by falling back to the other (weight excludes
	// saturated links), so both policies admit all four — the difference
	// is balance, verified above.
}

func TestMinHopFallsBackWhenSideFull(t *testing.T) {
	g, _, _ := diamond(t)
	a, d := topology.NodeID(0), topology.NodeID(3)
	c := central(t, g, 10, MinHop)
	used := map[topology.NodeID]int{}
	for k := 0; k < 4; k++ {
		res, err := c.Request(a, d, 5)
		if err != nil {
			t.Fatalf("request %d: %v", k, err)
		}
		used[res.Path[1]]++
	}
	if len(used) != 2 {
		t.Fatalf("min-hop never used the second side: %v", used)
	}
	// Fifth request: both sides full.
	if _, err := c.Request(a, d, 5); !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v, want ErrDenied", err)
	}
}

func TestRequestPathCommitsExactRoute(t *testing.T) {
	g, h0, h1 := diamond(t)
	c := central(t, g, 100, MinHop)
	// Force the route through switch c (index 2), not what MinHop picks.
	forced := []topology.NodeID{h0, 0, 2, 3, h1}
	res, err := c.RequestPath(h0, h1, forced, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Links) != 4 {
		t.Fatalf("links %v", res.Links)
	}
	lac, _ := g.LinkBetween(0, 2)
	if c.reserved[lac.ID] != 25 {
		t.Fatal("forced route not accounted")
	}
	lab, _ := g.LinkBetween(0, 1)
	if c.reserved[lab.ID] != 0 {
		t.Fatal("unforced route accounted")
	}
	// Over-commit on the exact path is denied.
	if _, err := c.RequestPath(h0, h1, forced, 80); !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v", err)
	}
	// Invalid path and rate rejected.
	if _, err := c.RequestPath(h0, h1, []topology.NodeID{h0, 3, h1}, 1); err == nil {
		t.Fatal("phantom path accepted")
	}
	if _, err := c.RequestPath(h0, h1, forced, 0); !errors.Is(err, ErrBadRate) {
		t.Fatalf("rate err = %v", err)
	}
	if err := c.Release(res.VC); err != nil {
		t.Fatal(err)
	}
	if c.reserved[lac.ID] != 0 {
		t.Fatal("release failed")
	}
}

func TestElect(t *testing.T) {
	g, _, _ := diamond(t)
	id, err := Elect(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Highest UID = latest-added switch = d (NodeID 3).
	if id != 3 {
		t.Fatalf("elected %d, want 3", id)
	}
	id, err = Elect(g, map[topology.NodeID]bool{3: true})
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Fatalf("elected %d with 3 dead, want 2", id)
	}
	all := map[topology.NodeID]bool{0: true, 1: true, 2: true, 3: true}
	if _, err := Elect(g, all); err == nil {
		t.Fatal("election with no live switches should fail")
	}
}

func TestPolicyString(t *testing.T) {
	if MinHop.String() != "min-hop" || LeastLoaded.String() != "least-loaded" || Policy(7).String() == "" {
		t.Error("policy names")
	}
}
