package routing

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/topology"
)

// This file keeps the per-request searches the Router's forests and
// array-based Dijkstra replaced, as the reference the differential tests
// compare against: a fresh BFS over map[routeState]routeState and a
// container/heap Dijkstra over three maps, both reading the caller's dead
// map and the tree directly. Which of several equal-length (or equal-cost)
// paths a search returns is part of the contract — the published tables and
// golden trajectories depend on it — so the comparison is for equal paths,
// not equal lengths.

type refRouter struct {
	g    *topology.Graph
	tree *Tree
	dead map[topology.LinkID]bool
}

type routeState struct {
	node     topology.NodeID
	wentDown bool
}

func (r *refRouter) usable(l topology.Link) bool { return !r.dead[l.ID] }

func (r *refRouter) attach(n topology.NodeID) (topology.NodeID, error) {
	node, ok := r.g.Node(n)
	if !ok {
		return topology.None, fmt.Errorf("routing: no node %d", n)
	}
	if node.Kind == topology.Switch {
		return n, nil
	}
	for _, l := range r.g.LinksOf(n) {
		if !r.usable(l) {
			continue
		}
		m := l.Other(n)
		if mn, ok := r.g.Node(m); ok && mn.Kind == topology.Switch {
			return m, nil
		}
	}
	return topology.None, fmt.Errorf("%w: host %d", ErrNotAttached, n)
}

// ends wraps a switch path in its host endpoints.
func ends(src, sSrc, dst, sDst topology.NodeID, core []topology.NodeID) []topology.NodeID {
	var path []topology.NodeID
	if src != sSrc {
		path = append(path, src)
	}
	path = append(path, core...)
	if dst != sDst {
		path = append(path, dst)
	}
	return path
}

func (r *refRouter) shortest(src, dst topology.NodeID, legal bool) ([]topology.NodeID, error) {
	sSrc, err := r.attach(src)
	if err != nil {
		return nil, err
	}
	sDst, err := r.attach(dst)
	if err != nil {
		return nil, err
	}
	core := []topology.NodeID{sSrc}
	if sSrc != sDst {
		if core, err = r.bfsStates(sSrc, sDst, legal); err != nil {
			return nil, err
		}
	}
	return ends(src, sSrc, dst, sDst, core), nil
}

func (r *refRouter) bfsStates(src, dst topology.NodeID, legal bool) ([]topology.NodeID, error) {
	start := routeState{node: src}
	pred := map[routeState]routeState{start: {node: topology.None}}
	queue := []routeState{start}
	var goal *routeState
	for len(queue) > 0 && goal == nil {
		st := queue[0]
		queue = queue[1:]
		for _, l := range r.g.LinksOf(st.node) {
			if !r.usable(l) || !r.g.SwitchOnly(l) {
				continue
			}
			m := l.Other(st.node)
			goingUp := r.tree.UpEnd(r.g, l) == m
			if legal && st.wentDown && goingUp {
				continue // down then up: illegal
			}
			next := routeState{node: m, wentDown: st.wentDown || (legal && !goingUp)}
			if _, seen := pred[next]; seen {
				continue
			}
			pred[next] = st
			if m == dst {
				goal = &next
				break
			}
			queue = append(queue, next)
		}
	}
	if goal == nil {
		return nil, fmt.Errorf("%w: %d -> %d", ErrNoRoute, src, dst)
	}
	var rev []topology.NodeID
	for st := *goal; st.node != topology.None; st = pred[st] {
		rev = append(rev, st.node)
	}
	slices.Reverse(rev)
	return rev, nil
}

func (r *refRouter) weightedLegal(src, dst topology.NodeID, weight WeightFunc) ([]topology.NodeID, float64, error) {
	if weight == nil {
		weight = func(topology.Link) float64 { return 1 }
	}
	sSrc, err := r.attach(src)
	if err != nil {
		return nil, 0, err
	}
	sDst, err := r.attach(dst)
	if err != nil {
		return nil, 0, err
	}
	core, cost := []topology.NodeID{sSrc}, 0.0
	if sSrc != sDst {
		if core, cost, err = r.dijkstra(sSrc, sDst, weight); err != nil {
			return nil, 0, err
		}
	}
	return ends(src, sSrc, dst, sDst, core), cost, nil
}

type pqItem struct {
	state routeState
	dist  float64
	index int
}

type priorityQueue []*pqItem

func (pq priorityQueue) Len() int           { return len(pq) }
func (pq priorityQueue) Less(i, j int) bool { return pq[i].dist < pq[j].dist }
func (pq priorityQueue) Swap(i, j int)      { pq[i], pq[j] = pq[j], pq[i]; pq[i].index = i; pq[j].index = j }
func (pq *priorityQueue) Push(x any)        { it := x.(*pqItem); it.index = len(*pq); *pq = append(*pq, it) }
func (pq *priorityQueue) Pop() any {
	old := *pq
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*pq = old[:n-1]
	return it
}

func (r *refRouter) dijkstra(src, dst topology.NodeID, weight WeightFunc) ([]topology.NodeID, float64, error) {
	start := routeState{node: src}
	dist := map[routeState]float64{start: 0}
	pred := map[routeState]routeState{start: {node: topology.None}}
	var pq priorityQueue
	heap.Push(&pq, &pqItem{state: start})
	settled := map[routeState]bool{}
	var best *routeState
	bestCost := math.Inf(1)
	for pq.Len() > 0 {
		it := heap.Pop(&pq).(*pqItem)
		st := it.state
		if settled[st] {
			continue
		}
		settled[st] = true
		if st.node == dst {
			bestCost = it.dist
			best = &st
			break
		}
		for _, l := range r.g.LinksOf(st.node) {
			if !r.usable(l) || !r.g.SwitchOnly(l) {
				continue
			}
			w := weight(l)
			if w < 0 || math.IsInf(w, 1) || math.IsNaN(w) {
				continue // unusable under this weighting
			}
			m := l.Other(st.node)
			goingUp := r.tree.UpEnd(r.g, l) == m
			if st.wentDown && goingUp {
				continue
			}
			next := routeState{node: m, wentDown: st.wentDown || !goingUp}
			nd := it.dist + w
			if old, seen := dist[next]; !seen || nd < old {
				dist[next] = nd
				pred[next] = st
				heap.Push(&pq, &pqItem{state: next, dist: nd})
			}
		}
	}
	if best == nil {
		return nil, 0, fmt.Errorf("%w: %d -> %d", ErrNoRoute, src, dst)
	}
	var rev []topology.NodeID
	for st := *best; st.node != topology.None; st = pred[st] {
		rev = append(rev, st.node)
	}
	slices.Reverse(rev)
	return rev, bestCost, nil
}

// refTopologies are the graphs the differential tests run over: the
// svc_churn torus, a two-level fat-tree and the SRC-like installation.
func refTopologies(t testing.TB) map[string]*topology.Graph {
	t.Helper()
	torus, err := topology.Torus(4, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AttachHosts(torus, 3, 1); err != nil {
		t.Fatal(err)
	}
	fat, _, err := topology.FatTree(topology.FatTreeConfig{Radix: 8, Pods: 8})
	if err != nil {
		t.Fatal(err)
	}
	src, err := topology.SRCLike(rand.New(rand.NewSource(5)), 4, 8, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*topology.Graph{"torus4x4": torus, "fattree8x8": fat, "srclike": src}
}

// randomDead kills each link with probability p (host links included, so
// some hosts lose their first attachment or all of them).
func randomDead(rng *rand.Rand, g *topology.Graph, p float64) map[topology.LinkID]bool {
	dead := make(map[topology.LinkID]bool)
	for id := 0; id < g.NumLinks(); id++ {
		if rng.Float64() < p {
			dead[topology.LinkID(id)] = true
		}
	}
	return dead
}

// sameOutcome fails unless both sides returned the same path and the same
// kind of error.
func sameOutcome(t *testing.T, ctx string, got []topology.NodeID, gotErr error, want []topology.NodeID, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) ||
		errors.Is(gotErr, ErrNoRoute) != errors.Is(wantErr, ErrNoRoute) ||
		errors.Is(gotErr, ErrNotAttached) != errors.Is(wantErr, ErrNotAttached) {
		t.Fatalf("%s: err = %v, reference err = %v", ctx, gotErr, wantErr)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: path differs\n got %v\nwant %v", ctx, got, want)
	}
}

// TestRouterMatchesReferenceSearch is the differential test for the whole
// routing surface: over three topologies and 200 random dead-link sets each
// (from none dead to one link in three), every cached answer — legal,
// unrestricted, and weighted under unit, load-style and excluding weights —
// equals the per-request search's: same path, same cost, same error. Every
// legal path also passes IsLegal, and each sub-run must have seen both
// routed and unroutable pairs.
func TestRouterMatchesReferenceSearch(t *testing.T) {
	sets, pairs := 200, 40
	if testing.Short() {
		sets = 40
	}
	for name, g := range refTopologies(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name)) + 24))
			nodes := g.NumNodes()
			root := g.Switches()[0]
			var routed, noRoute, detached int
			for set := 0; set < sets; set++ {
				dead := randomDead(rng, g, float64(set%8)*0.05)
				r, err := NewRouter(g, root, dead)
				if err != nil {
					t.Fatal(err)
				}
				ref := &refRouter{g: g, tree: r.Tree(), dead: dead}
				load := make([]float64, g.NumLinks())
				for i := range load {
					load[i] = float64(rng.Intn(9)) / 8
				}
				weights := map[string]WeightFunc{
					"nil":  nil,
					"load": func(l topology.Link) float64 { return 1 + 4*load[l.ID] },
					"excluding": func(l topology.Link) float64 {
						if load[l.ID] == 1 {
							return -1
						}
						return 1
					},
				}
				// Any node may be an endpoint: hosts, switches, the same
				// node twice. Most requests come from a few sources, so
				// that a forest is read more often than it is grown.
				var busy [4]topology.NodeID
				for i := range busy {
					busy[i] = topology.NodeID(rng.Intn(nodes))
				}
				for i := 0; i < pairs; i++ {
					a := topology.NodeID(rng.Intn(nodes))
					if i%4 != 0 {
						a = busy[i%len(busy)]
					}
					b := topology.NodeID(rng.Intn(nodes))
					ctx := fmt.Sprintf("set %d (%d dead) %d->%d", set, len(dead), a, b)

					got, gotErr := r.ShortestLegal(a, b)
					want, wantErr := ref.shortest(a, b, true)
					sameOutcome(t, ctx+" legal", got, gotErr, want, wantErr)
					switch {
					case gotErr == nil:
						routed++
						if !r.IsLegal(got) {
							t.Fatalf("%s: path %v is not legal", ctx, got)
						}
					case errors.Is(gotErr, ErrNoRoute):
						noRoute++
					default:
						detached++
					}

					got, gotErr = r.ShortestUnrestricted(a, b)
					want, wantErr = ref.shortest(a, b, false)
					sameOutcome(t, ctx+" unrestricted", got, gotErr, want, wantErr)

					for wname, w := range weights {
						got, gotCost, gotErr := r.WeightedLegal(a, b, w)
						want, wantCost, wantErr := ref.weightedLegal(a, b, w)
						sameOutcome(t, ctx+" weighted/"+wname, got, gotErr, want, wantErr)
						if gotCost != wantCost {
							t.Fatalf("%s weighted/%s: cost %v, reference %v", ctx, wname, gotCost, wantCost)
						}
						if gotErr == nil && !r.IsLegal(got) {
							t.Fatalf("%s weighted/%s: path %v is not legal", ctx, wname, got)
						}
					}
				}
			}
			if routed == 0 || noRoute == 0 || detached == 0 {
				t.Fatalf("coverage: routed %d, no route %d, detached %d — each must occur", routed, noRoute, detached)
			}
		})
	}
}

// TestRouterIsOneEpoch pins the snapshot: a Router keeps the dead-link set
// it was built with. Changing the caller's map afterwards — as core does in
// PullPlug before the next Reconfigure builds the next Router — changes no
// route, cached or not; the change takes effect in a new Router.
func TestRouterIsOneEpoch(t *testing.T) {
	g, err := topology.Ring(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AttachHosts(g, 1, 1); err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	dead := map[topology.LinkID]bool{}
	r, err := NewRouter(g, 0, dead)
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		path []topology.NodeID
		cost float64
	}
	ask := func(r *Router) (out []answer) {
		for _, a := range hosts {
			for _, b := range hosts {
				p, err := r.ShortestLegal(a, b)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, answer{path: p})
				p, c, err := r.WeightedLegal(a, b, nil)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, answer{p, c})
			}
		}
		return out
	}
	before := ask(r) // every source is now cached
	fresh, err := NewRouter(g, 0, dead)
	if err != nil {
		t.Fatal(err)
	}
	l01, _ := g.LinkBetween(0, 1)
	dead[l01.ID] = true

	for name, rr := range map[string]*Router{"cached": r, "uncached": fresh} {
		after := ask(rr)
		for i := range before {
			if !slices.Equal(after[i].path, before[i].path) || after[i].cost != before[i].cost {
				t.Fatalf("%s router: answer %d moved with the caller's map: %v -> %v", name, i, before[i], after[i])
			}
		}
		if !rr.IsLegal([]topology.NodeID{0, 1}) {
			t.Errorf("%s router: IsLegal reads the caller's map", name)
		}
	}
	next, err := NewRouter(g, 0, dead)
	if err != nil {
		t.Fatal(err)
	}
	p, err := next.ShortestLegal(hosts[0], hosts[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 8 {
		t.Fatalf("next epoch still routes over the dead link: %v", p)
	}
}
