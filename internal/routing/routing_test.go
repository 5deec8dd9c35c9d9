package routing

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cell"
	"repro/internal/topology"
)

func mustRouter(t *testing.T, g *topology.Graph, root topology.NodeID) *Router {
	t.Helper()
	r, err := NewRouter(g, root, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBuildTreeLevels(t *testing.T) {
	g, err := topology.Line(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if tree.Level[topology.NodeID(i)] != i {
			t.Fatalf("level[%d] = %d", i, tree.Level[topology.NodeID(i)])
		}
	}
	if tree.Parent[0] != topology.None || tree.Parent[3] != 2 {
		t.Fatal("parents wrong")
	}
	if _, err := BuildTree(g, 99, nil); err == nil {
		t.Error("bad root accepted")
	}
}

func TestUpEndOrientation(t *testing.T) {
	// Triangle: 0 root; 1 and 2 at level 1; link 1-2 ties on level, so up
	// is toward the higher UID (node 2, UID 3).
	g := topology.New()
	a := g.AddSwitch("a")
	b := g.AddSwitch("b")
	c := g.AddSwitch("c")
	for _, pair := range [][2]topology.NodeID{{a, b}, {a, c}, {b, c}} {
		if _, err := g.Connect(pair[0], pair[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := BuildTree(g, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	lab, _ := g.LinkBetween(a, b)
	if tree.UpEnd(g, lab) != a {
		t.Fatal("up end of root link should be the root")
	}
	lbc, _ := g.LinkBetween(b, c)
	if tree.UpEnd(g, lbc) != c {
		t.Fatal("tie should break toward the higher-numbered switch")
	}
}

func TestShortestLegalIsLegalAndConnectsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		g, err := topology.RandomConnected(rng, 3+rng.Intn(15), 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		r := mustRouter(t, g, 0)
		sw := g.Switches()
		for _, src := range sw {
			for _, dst := range sw {
				if src == dst {
					continue
				}
				path, err := r.ShortestLegal(src, dst)
				if err != nil {
					t.Fatalf("trial %d: legal route %d->%d: %v", trial, src, dst, err)
				}
				if !r.IsLegal(path) {
					t.Fatalf("trial %d: route %v reported legal but fails IsLegal", trial, path)
				}
				if path[0] != src || path[len(path)-1] != dst {
					t.Fatalf("trial %d: path endpoints wrong: %v", trial, path)
				}
			}
		}
	}
}

// Up*/down* completeness: a legal path exists between every pair in any
// connected topology (up to the common ancestor, then down).
func TestLegalRouteAlwaysExists(t *testing.T) {
	g, err := topology.Torus(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRouter(t, g, 5)
	for _, src := range g.Switches() {
		for _, dst := range g.Switches() {
			if src == dst {
				continue
			}
			if _, err := r.ShortestLegal(src, dst); err != nil {
				t.Fatalf("%d->%d: %v", src, dst, err)
			}
		}
	}
}

func TestPathInflation(t *testing.T) {
	// On a ring, up*/down* forbids crossing the "bottom" link, inflating
	// some routes; unrestricted shortest uses it.
	g, err := topology.Ring(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRouter(t, g, 0)
	totalLegal, totalFree := 0, 0
	for _, src := range g.Switches() {
		for _, dst := range g.Switches() {
			if src == dst {
				continue
			}
			legal, err := r.ShortestLegal(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			free, err := r.ShortestUnrestricted(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if len(legal) < len(free) {
				t.Fatalf("legal route shorter than unrestricted: %v vs %v", legal, free)
			}
			totalLegal += len(legal) - 1
			totalFree += len(free) - 1
		}
	}
	if totalLegal <= totalFree {
		t.Fatalf("expected inflation on a ring: legal %d vs free %d hops", totalLegal, totalFree)
	}
}

func TestHostAttachment(t *testing.T) {
	g, err := topology.Line(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	h1 := g.AddHost("h1")
	h2 := g.AddHost("h2")
	if _, err := g.Connect(h1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(h2, 2, 1); err != nil {
		t.Fatal(err)
	}
	r := mustRouter(t, g, 0)
	path, err := r.ShortestLegal(h1, h2)
	if err != nil {
		t.Fatal(err)
	}
	want := []topology.NodeID{h1, 0, 1, 2, h2}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	// Unattached host errors.
	h3 := g.AddHost("h3")
	if _, err := r.ShortestLegal(h3, h1); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("err = %v, want ErrNotAttached", err)
	}
	if _, err := r.ShortestLegal(999, h1); err == nil {
		t.Error("unknown node accepted")
	}
}

func TestSameSwitchRoute(t *testing.T) {
	g, err := topology.Line(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	h1 := g.AddHost("h1")
	h2 := g.AddHost("h2")
	if _, err := g.Connect(h1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(h2, 0, 1); err != nil {
		t.Fatal(err)
	}
	r := mustRouter(t, g, 0)
	path, err := r.ShortestLegal(h1, h2)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 || path[1] != 0 {
		t.Fatalf("same-switch path = %v", path)
	}
}

func TestDeadLinksAvoided(t *testing.T) {
	g, err := topology.Ring(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	l, _ := g.LinkBetween(0, 1)
	r, err := NewRouter(g, 0, map[topology.LinkID]bool{l.ID: true})
	if err != nil {
		t.Fatal(err)
	}
	path, err := r.ShortestUnrestricted(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 4 {
		t.Fatalf("route around dead link = %v, want the 3-hop way", path)
	}
	// Partition: kill the other side too.
	l2, _ := g.LinkBetween(0, 3)
	r2, err := NewRouter(g, 0, map[topology.LinkID]bool{l.ID: true, l2.ID: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.ShortestUnrestricted(0, 2); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

// E12a: up*/down* routes never create a buffer-wait cycle.
func TestUpDownDeadlockFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		g, err := topology.RandomConnected(rng, 4+rng.Intn(16), 14, 1)
		if err != nil {
			t.Fatal(err)
		}
		r := mustRouter(t, g, 0)
		var routes [][]topology.NodeID
		sw := g.Switches()
		for _, src := range sw {
			for _, dst := range sw {
				if src == dst {
					continue
				}
				p, err := r.ShortestLegal(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				routes = append(routes, p)
			}
		}
		if cyc := DependencyCycle(g, routes); cyc != nil {
			t.Fatalf("trial %d: up*/down* routes form buffer-wait cycle via %v", trial, cyc)
		}
	}
}

// E12b: without the restriction, a ring of "go around" routes forms a
// cycle — the deadlock precondition.
func TestUnrestrictedRoutesCanDeadlock(t *testing.T) {
	g, err := topology.Ring(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Force all-clockwise 2-hop routes: 0->1->2, 1->2->3, 2->3->0, 3->0->1.
	routes := [][]topology.NodeID{
		{0, 1, 2}, {1, 2, 3}, {2, 3, 0}, {3, 0, 1},
	}
	if cyc := DependencyCycle(g, routes); cyc == nil {
		t.Fatal("clockwise ring routes should form a buffer-wait cycle")
	}
	// The same traffic on up*/down* legal routes has no cycle.
	r := mustRouter(t, g, 0)
	var legal [][]topology.NodeID
	for _, route := range routes {
		p, err := r.ShortestLegal(route[0], route[len(route)-1])
		if err != nil {
			t.Fatal(err)
		}
		legal = append(legal, p)
	}
	if cyc := DependencyCycle(g, legal); cyc != nil {
		t.Fatalf("legal replacements still cycle: %v", cyc)
	}
}

func TestIsLegalRejectsDownThenUp(t *testing.T) {
	// Line 0-1-2 rooted at 1: 0 and 2 are down from 1. The path 0->1->2
	// goes up then down (legal); the path constructed 0->1 via... build a
	// diamond where an illegal path exists: root 0, children 1,2, and 3
	// below both. Path 1->3->2 goes down (1->3) then up (3->2): illegal.
	g := topology.New()
	n0 := g.AddSwitch("r")
	n1 := g.AddSwitch("a")
	n2 := g.AddSwitch("b")
	n3 := g.AddSwitch("c")
	for _, pair := range [][2]topology.NodeID{{n0, n1}, {n0, n2}, {n1, n3}, {n2, n3}} {
		if _, err := g.Connect(pair[0], pair[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	r := mustRouter(t, g, n0)
	if r.IsLegal([]topology.NodeID{n1, n3, n2}) {
		t.Fatal("down-then-up path accepted as legal")
	}
	if !r.IsLegal([]topology.NodeID{n1, n0, n2}) {
		t.Fatal("up-then-down path rejected")
	}
	if r.IsLegal([]topology.NodeID{n1, n2}) {
		t.Fatal("path over missing link accepted")
	}
}

func TestPathLinks(t *testing.T) {
	g, err := topology.Line(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRouter(t, g, 0)
	path, err := r.ShortestLegal(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	links, err := r.PathLinks(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 2 {
		t.Fatalf("links = %v", links)
	}
	if _, err := r.PathLinks([]topology.NodeID{0, 2}); err == nil {
		t.Error("phantom link accepted")
	}
}

func TestRoutingTable(t *testing.T) {
	var tbl Table
	if _, ok := tbl.Lookup(5); ok {
		t.Fatal("empty table hit")
	}
	tbl.Set(5, 3)
	tbl.Set(9, 1)
	if p, ok := tbl.Lookup(5); !ok || p != 3 {
		t.Fatal("lookup wrong")
	}
	tbl.Set(5, 7) // replace
	if p, _ := tbl.Lookup(5); p != 7 {
		t.Fatal("replace failed")
	}
	if tbl.Len() != 2 || len(tbl.Circuits()) != 2 {
		t.Fatal("len wrong")
	}
	tbl.Delete(5)
	tbl.Delete(5) // idempotent
	if _, ok := tbl.Lookup(5); ok || tbl.Len() != 1 {
		t.Fatal("delete failed")
	}
	var vc cell.VCI = 9
	if p, _ := tbl.Lookup(vc); p != 1 {
		t.Fatal("remaining entry wrong")
	}
}

// Property: on random connected graphs, every shortest legal path is legal
// and at least as long as the unrestricted shortest.
func TestQuickLegalVsUnrestricted(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%12) + 2
		rng := rand.New(rand.NewSource(seed))
		g, err := topology.RandomConnected(rng, n, n, 1)
		if err != nil {
			return false
		}
		r, err := NewRouter(g, 0, nil)
		if err != nil {
			return false
		}
		src := topology.NodeID(rng.Intn(n))
		dst := topology.NodeID(rng.Intn(n))
		if src == dst {
			return true
		}
		legal, err := r.ShortestLegal(src, dst)
		if err != nil {
			return false
		}
		free, err := r.ShortestUnrestricted(src, dst)
		if err != nil {
			return false
		}
		return r.IsLegal(legal) && len(legal) >= len(free)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// churnRouter is a router over the svc_churn torus and 512 random host pairs.
func churnRouter(tb testing.TB) (*Router, [][2]topology.NodeID) {
	tb.Helper()
	g := refTopologies(tb)["torus4x4"]
	r, err := NewRouter(g, 0, nil)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	hosts := g.Hosts()
	pairs := make([][2]topology.NodeID, 512)
	for i := range pairs {
		pairs[i] = [2]topology.NodeID{hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]}
	}
	return r, pairs
}

// stripedLoad is a weighting under which hop count and cost disagree.
func stripedLoad(l topology.Link) float64 { return 1 + float64(l.ID%5) }

// TestRouteAllocations pins what a request costs once its source's forest
// exists and the Dijkstra scratch is sized: the returned path, nothing else.
func TestRouteAllocations(t *testing.T) {
	r, pairs := churnRouter(t)
	i := 0
	legal := func() {
		if _, err := r.ShortestLegal(pairs[i%len(pairs)][0], pairs[i%len(pairs)][1]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	weighted := func() {
		if _, _, err := r.WeightedLegal(pairs[i%len(pairs)][0], pairs[i%len(pairs)][1], stripedLoad); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range pairs {
		legal()
		weighted()
	}
	if got := testing.AllocsPerRun(1000, legal); got > 1 {
		t.Errorf("warm ShortestLegal: %.1f allocs, want <= 1", got)
	}
	if got := testing.AllocsPerRun(1000, weighted); got > 1 {
		t.Errorf("warm WeightedLegal: %.1f allocs, want <= 1", got)
	}
}

func BenchmarkShortestLegalWarm(b *testing.B) {
	r, pairs := churnRouter(b)
	for _, p := range pairs {
		if _, err := r.ShortestLegal(p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ShortestLegal(pairs[i%len(pairs)][0], pairs[i%len(pairs)][1]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWeightedLegal(b *testing.B) {
	r, pairs := churnRouter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.WeightedLegal(pairs[i%len(pairs)][0], pairs[i%len(pairs)][1], stripedLoad); err != nil {
			b.Fatal(err)
		}
	}
}
