package topology

import (
	"encoding/json"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestConnectBasics(t *testing.T) {
	g := New()
	a := g.AddSwitch("a")
	b := g.AddSwitch("b")
	h := g.AddHost("h")
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", g.NumNodes())
	}
	lid, err := g.Connect(a, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(h, a, 1); err != nil {
		t.Fatal(err)
	}
	l, ok := g.Link(lid)
	if !ok || l.A != a || l.B != b || l.Latency != 2 {
		t.Fatalf("Link = %+v", l)
	}
	if l.Other(a) != b || l.Other(b) != a || l.Other(h) != None {
		t.Error("Other wrong")
	}
	if l.PortAt(a) != 0 || l.PortAt(b) != 0 || l.PortAt(h) != -1 {
		t.Error("PortAt wrong")
	}
	if got, ok := g.LinkBetween(b, a); !ok || got.ID != lid {
		t.Error("LinkBetween failed")
	}
	if _, ok := g.LinkBetween(b, h); ok {
		t.Error("LinkBetween found phantom link")
	}
}

func TestConnectErrors(t *testing.T) {
	g := New()
	a := g.AddSwitch("a")
	b := g.AddSwitch("b")
	cases := []struct {
		name string
		do   func() error
		want error
	}{
		{"self", func() error { _, err := g.Connect(a, a, 1); return err }, ErrSelfLink},
		{"missing", func() error { _, err := g.Connect(a, 99, 1); return err }, ErrNoSuchNode},
		{"latency", func() error { _, err := g.Connect(a, b, 0); return err }, ErrBadLatency},
	}
	for _, c := range cases {
		if err := c.do(); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	if _, err := g.Connect(a, b, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(b, a, 1); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate: err = %v, want ErrDuplicate", err)
	}
}

func TestPortExhaustion(t *testing.T) {
	g := New()
	hub := g.AddSwitch("hub")
	for i := 0; i < PortsPerSwitch; i++ {
		s := g.AddSwitch("")
		if _, err := g.Connect(hub, s, 1); err != nil {
			t.Fatalf("port %d: %v", i, err)
		}
	}
	s := g.AddSwitch("overflow")
	if _, err := g.Connect(hub, s, 1); !errors.Is(err, ErrNoFreePort) {
		t.Fatalf("err = %v, want ErrNoFreePort", err)
	}
}

func TestHostHasTwoPorts(t *testing.T) {
	g := New()
	h := g.AddHost("h")
	a := g.AddSwitch("a")
	b := g.AddSwitch("b")
	c := g.AddSwitch("c")
	if _, err := g.Connect(h, a, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(h, b, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(h, c, 1); !errors.Is(err, ErrNoFreePort) {
		t.Fatalf("third host link: err = %v, want ErrNoFreePort", err)
	}
}

func TestNeighborsAndKinds(t *testing.T) {
	g := New()
	a := g.AddSwitch("a")
	b := g.AddSwitch("b")
	h := g.AddHost("h")
	if _, err := g.Connect(a, b, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(a, h, 1); err != nil {
		t.Fatal(err)
	}
	if n := g.Neighbors(a); len(n) != 2 {
		t.Fatalf("Neighbors = %v", n)
	}
	if n := g.SwitchNeighbors(a); len(n) != 1 || n[0] != b {
		t.Fatalf("SwitchNeighbors = %v", n)
	}
	if len(g.Switches()) != 2 || len(g.Hosts()) != 1 {
		t.Error("Switches/Hosts counts wrong")
	}
	if Switch.String() != "switch" || Host.String() != "host" || Kind(9).String() == "" {
		t.Error("Kind.String wrong")
	}
}

func TestBFSAndDiameter(t *testing.T) {
	g, err := Line(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	level, maxLevel := g.BFS(0, nil, nil)
	if maxLevel != 4 {
		t.Fatalf("maxLevel = %d, want 4", maxLevel)
	}
	for i := 0; i < 5; i++ {
		if level[i] != i {
			t.Fatalf("level[%d] = %d, want %d", i, level[i], i)
		}
	}
	if d := g.Diameter(); d != 4 {
		t.Fatalf("Diameter = %d, want 4", d)
	}
	ring, err := Ring(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := ring.Diameter(); d != 3 {
		t.Fatalf("Ring(6) diameter = %d, want 3", d)
	}
}

func TestConnectedAndFilter(t *testing.T) {
	g, err := Ring(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected(nil) {
		t.Fatal("ring should be connected")
	}
	// Remove one link: still connected (it's a ring).
	var cut LinkID
	for _, l := range g.Links() {
		if l.A == 0 || l.B == 0 {
			cut = l.ID
			break
		}
	}
	oneDown := func(l Link) bool { return l.ID != cut }
	if !g.Connected(oneDown) {
		t.Fatal("ring minus one link should be connected")
	}
	// Remove both links of node 0: disconnected.
	links0 := g.LinksOf(0)
	bothDown := func(l Link) bool { return l.ID != links0[0].ID && l.ID != links0[1].ID }
	if g.Connected(bothDown) {
		t.Fatal("isolating a switch should disconnect")
	}
}

func TestArticulationSwitches(t *testing.T) {
	line, err := Line(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	cuts := line.ArticulationSwitches()
	if len(cuts) != 3 {
		t.Fatalf("line articulation points = %v, want the 3 interior switches", cuts)
	}
	ring, err := Ring(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cuts := ring.ArticulationSwitches(); len(cuts) != 0 {
		t.Fatalf("ring should have no articulation points, got %v", cuts)
	}
}

func TestTreeGenerator(t *testing.T) {
	g, err := Tree(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 7 || g.NumLinks() != 6 {
		t.Fatalf("Tree(2,3): %d nodes %d links, want 7/6", g.NumNodes(), g.NumLinks())
	}
	if !g.Connected(nil) {
		t.Fatal("tree disconnected")
	}
	if _, err := Tree(0, 3, 1); err == nil {
		t.Error("Tree(0,·) accepted")
	}
	if _, err := Tree(2, 0, 1); err == nil {
		t.Error("Tree(·,0) accepted")
	}
}

func TestTorusGenerator(t *testing.T) {
	g, err := Torus(3, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 12 || g.NumLinks() != 24 {
		t.Fatalf("Torus(3,4): %d nodes %d links, want 12/24", g.NumNodes(), g.NumLinks())
	}
	for _, d := range g.Degrees() {
		if d != 4 {
			t.Fatalf("torus degree %d, want 4", d)
		}
	}
	if _, err := Torus(2, 3, 1); err == nil {
		t.Error("Torus(2,·) accepted")
	}
}

func TestRandomConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 40; n += 13 {
		g, err := RandomConnected(rng, n, n, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if g.NumNodes() != n {
			t.Fatalf("n=%d: NumNodes = %d", n, g.NumNodes())
		}
		if !g.Connected(nil) {
			t.Fatalf("n=%d: disconnected", n)
		}
	}
}

func TestSRCLike(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := SRCLike(rng, 4, 8, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Switches()) != 12 || len(g.Hosts()) != 20 {
		t.Fatalf("switches=%d hosts=%d", len(g.Switches()), len(g.Hosts()))
	}
	if !g.Connected(nil) {
		t.Fatal("SRC-like disconnected")
	}
	// Figure 1's property: no single switch failure partitions the rest.
	if cuts := g.ArticulationSwitches(); len(cuts) != 0 {
		t.Fatalf("SRC-like has articulation switches %v, want none", cuts)
	}
	// Every host is dual-homed.
	for _, h := range g.Hosts() {
		if len(g.Neighbors(h)) != 2 {
			t.Fatalf("host %d has %d links, want 2", h, len(g.Neighbors(h)))
		}
	}
}

func TestAttachHosts(t *testing.T) {
	g, err := Ring(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := AttachHosts(g, 3, 1); err != nil {
		t.Fatal(err)
	}
	if len(g.Hosts()) != 12 {
		t.Fatalf("hosts = %d, want 12", len(g.Hosts()))
	}
}

func TestCloneIsDeep(t *testing.T) {
	g, err := Ring(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	extra := c.AddSwitch("extra")
	if _, err := c.Connect(extra, 0, 1); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() == c.NumNodes() || g.NumLinks() == c.NumLinks() {
		t.Fatal("clone shares state with original")
	}
	if len(g.LinksOf(0)) == len(c.LinksOf(0)) {
		t.Fatal("clone shares port arrays")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := SRCLike(rng, 3, 4, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != g.NumNodes() || back.NumLinks() != g.NumLinks() {
		t.Fatalf("round trip: %d/%d nodes, %d/%d links",
			back.NumNodes(), g.NumNodes(), back.NumLinks(), g.NumLinks())
	}
	if !back.Connected(nil) {
		t.Fatal("round-tripped graph disconnected")
	}
}

func TestJSONRejectsGarbage(t *testing.T) {
	var g Graph
	if err := json.Unmarshal([]byte(`{"nodes":[{"kind":"router","name":"x"}]}`), &g); err == nil {
		t.Error("unknown kind accepted")
	}
	if err := json.Unmarshal([]byte(`not json`), &g); err == nil {
		t.Error("garbage accepted")
	}
}

func TestDOT(t *testing.T) {
	g, err := Line(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	dot := g.DOT()
	for _, want := range []string{"graph an2", "n0 -- n1", "shape=box"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

// Property: random connected graphs stay connected after removing any
// single non-bridge link (sanity of Connected + filters working together).
func TestQuickRandomGraphInvariants(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%20) + 2
		rng := rand.New(rand.NewSource(seed))
		g, err := RandomConnected(rng, n, n/2, 1)
		if err != nil {
			return false
		}
		if !g.Connected(nil) {
			return false
		}
		// Spanning tree has n-1 links; extras only add.
		return g.NumLinks() >= n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBFSTorus(b *testing.B) {
	g, err := Torus(8, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.BFS(0, nil, nil)
	}
}

// TestAdjacencyWalkMatchesLinksOf checks Ports+LinkRef against the copying
// LinksOf on every node, and that the walk and LinkBetween allocate nothing.
func TestAdjacencyWalkMatchesLinksOf(t *testing.T) {
	g, err := SRCLike(rand.New(rand.NewSource(3)), 4, 8, 24, 2)
	if err != nil {
		t.Fatal(err)
	}
	for n := NodeID(0); int(n) < g.NumNodes(); n++ {
		var walked []Link
		for _, id := range g.Ports(n) {
			if id >= 0 {
				walked = append(walked, *g.LinkRef(id))
			}
		}
		if !slices.Equal(walked, g.LinksOf(n)) {
			t.Fatalf("node %d: walk %v, LinksOf %v", n, walked, g.LinksOf(n))
		}
		for _, l := range walked {
			if got, ok := g.LinkBetween(n, l.Other(n)); !ok || got != l {
				t.Fatalf("LinkBetween(%d, %d) = %v, %v; want %v", n, l.Other(n), got, ok, l)
			}
		}
	}
	if g.Ports(None) != nil || g.Ports(NodeID(g.NumNodes())) != nil {
		t.Error("Ports of an unknown node is not nil")
	}
	last := g.LinkRef(LinkID(g.NumLinks() - 1))
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := g.LinkBetween(last.A, last.B); !ok {
			t.Fatal("link not found")
		}
		if _, ok := g.LinkBetween(last.A, last.A); ok {
			t.Fatal("self link found")
		}
	})
	if allocs != 0 {
		t.Errorf("LinkBetween: %.1f allocs, want 0", allocs)
	}
}

func BenchmarkLinkBetween(b *testing.B) {
	g, err := Torus(4, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	links := g.Links()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := links[i%len(links)]
		if _, ok := g.LinkBetween(l.B, l.A); !ok {
			b.Fatal("link not found")
		}
	}
}
