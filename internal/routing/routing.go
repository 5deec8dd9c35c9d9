// Package routing implements AN1/AN2 route computation (paper §2, §5):
// spanning-tree link orientation, up*/down* legal paths (AN1's deadlock
// avoidance), shortest-path routing, and the per-switch routing tables that
// map a cell's virtual circuit id to its output port.
//
// Up*/down* routing assigns every inter-switch link an orientation — "up"
// is toward the root of the reconfiguration spanning tree, with ties (equal
// tree level) broken toward the higher-numbered switch. Messages may only
// follow paths in which no traversal down a link is followed by an upward
// traversal. This restriction prevents buffer-wait cycles, hence deadlock,
// at the cost of excluding some routes.
package routing

import (
	"errors"
	"fmt"

	"repro/internal/topology"
)

// Tree is the spanning-tree structure used for link orientation. In AN1
// the tree comes from the last reconfiguration; any BFS tree works for the
// orientation's correctness.
type Tree struct {
	Root   topology.NodeID
	Level  map[topology.NodeID]int
	Parent map[topology.NodeID]topology.NodeID
}

// BuildTree computes a breadth-first spanning tree of the switch subgraph
// from root, using only links accepted by filter (nil = all).
func BuildTree(g *topology.Graph, root topology.NodeID, filter topology.LinkFilter) (*Tree, error) {
	n, ok := g.Node(root)
	if !ok || n.Kind != topology.Switch {
		return nil, fmt.Errorf("routing: root %d is not a switch", root)
	}
	f := func(l topology.Link) bool {
		return g.SwitchOnly(l) && (filter == nil || filter(l))
	}
	level, _ := g.BFS(root, f, func(m topology.NodeID) bool {
		node, ok := g.Node(m)
		return ok && node.Kind == topology.Switch
	})
	t := &Tree{
		Root:   root,
		Level:  make(map[topology.NodeID]int),
		Parent: make(map[topology.NodeID]topology.NodeID),
	}
	for _, s := range g.Switches() {
		if level[s] < 0 {
			continue
		}
		t.Level[s] = level[s]
	}
	// Parents: any neighbor one level up (first in port order, matching
	// the deterministic tie-break hardware would use).
	for s := range t.Level {
		if s == root {
			t.Parent[s] = topology.None
			continue
		}
		for _, id := range g.Ports(s) {
			if id < 0 || !f(*g.LinkRef(id)) {
				continue
			}
			m := g.LinkRef(id).Other(s)
			if lv, ok := t.Level[m]; ok && lv == t.Level[s]-1 {
				t.Parent[s] = m
				break
			}
		}
	}
	return t, nil
}

// UpEnd returns the endpoint of l that is the "up" direction: the endpoint
// closer to the root, with equal levels broken toward the higher-numbered
// (higher-UID) switch.
func (t *Tree) UpEnd(g *topology.Graph, l topology.Link) topology.NodeID {
	la, lb := t.Level[l.A], t.Level[l.B]
	if la != lb {
		if la < lb {
			return l.A
		}
		return l.B
	}
	na, _ := g.Node(l.A)
	nb, _ := g.Node(l.B)
	if na.UID > nb.UID {
		return l.A
	}
	return l.B
}

// Router computes routes over a topology for one epoch: the orientation
// tree, the switch set and the dead links it was built with are fixed for
// its lifetime, and a reconfiguration builds a new Router. That is what
// lets it answer a request by walking a per-source table (forest) instead of
// searching. Hosts and host links may still be added to the graph; switches
// and inter-switch links may not. A Router is not safe for concurrent use:
// requests fill its tables lazily and share its search scratch.
type Router struct {
	g    *topology.Graph
	tree *Tree
	// dead[id] marks an unusable link: a snapshot of the caller's set.
	dead []bool
	// switches lists the graph's switches ascending and rank inverts it (-1
	// for hosts); search state is indexed by rank so that hosts cost nothing.
	switches []topology.NodeID
	rank     []int32
	// upEnd[id] is the up end of inter-switch link id, None for a host link.
	upEnd []topology.NodeID
	// legal and unrestricted hold each source switch's route table, by
	// rank, under and without the up*/down* rule; nil until first asked for.
	legal, unrestricted []*forest
	search              *search
}

// NewRouter creates a router. root is the orientation root (in AN1, the
// root of the reconfiguration spanning tree). dead may be nil; it is copied.
func NewRouter(g *topology.Graph, root topology.NodeID, dead map[topology.LinkID]bool) (*Router, error) {
	filter := func(l topology.Link) bool { return !dead[l.ID] }
	tree, err := BuildTree(g, root, filter)
	if err != nil {
		return nil, err
	}
	return NewRouterWithTree(g, tree, dead)
}

// NewRouterWithTree creates a router that orients links by a tree computed
// elsewhere — in AN1, the propagation-order spanning tree produced by the
// last reconfiguration. Switches absent from tree.Level are treated as
// unreachable. dead is copied and tree must not change afterwards.
func NewRouterWithTree(g *topology.Graph, tree *Tree, dead map[topology.LinkID]bool) (*Router, error) {
	if tree == nil || len(tree.Level) == 0 {
		return nil, errors.New("routing: empty orientation tree")
	}
	r := &Router{
		g:        g,
		tree:     tree,
		dead:     make([]bool, g.NumLinks()),
		switches: g.Switches(),
		rank:     make([]int32, g.NumNodes()),
		upEnd:    make([]topology.NodeID, g.NumLinks()),
	}
	for id, d := range dead {
		if d && int(id) < len(r.dead) {
			r.dead[id] = true
		}
	}
	for i := range r.rank {
		r.rank[i] = -1
	}
	for i, s := range r.switches {
		r.rank[s] = int32(i)
	}
	for id := range r.upEnd {
		r.upEnd[id] = topology.None
		if l := g.LinkRef(topology.LinkID(id)); g.SwitchOnly(*l) {
			r.upEnd[id] = tree.UpEnd(g, *l)
		}
	}
	r.legal = make([]*forest, len(r.switches))
	r.unrestricted = make([]*forest, len(r.switches))
	return r, nil
}

// Tree returns the orientation tree.
func (r *Router) Tree() *Tree { return r.tree }

// usable reports whether a link can carry traffic.
func (r *Router) usable(id topology.LinkID) bool { return int(id) >= len(r.dead) || !r.dead[id] }

// up returns the up end of inter-switch link id: the endpoint closer to the
// root (Tree.UpEnd, resolved once per link). None for a host link.
func (r *Router) up(id topology.LinkID) topology.NodeID {
	if int(id) >= len(r.upEnd) {
		return topology.None
	}
	return r.upEnd[id]
}

// rankOf returns n's switch rank, or -1 if n is not one of the router's
// switches.
func (r *Router) rankOf(n topology.NodeID) int32 {
	if n < 0 || int(n) >= len(r.rank) {
		return -1
	}
	return r.rank[n]
}

// Routing errors.
var (
	ErrNoRoute     = errors.New("routing: no route")
	ErrNotAttached = errors.New("routing: host has no live switch link")
)

// attach resolves a node to its routing switch: a switch maps to itself; a
// host maps to its first live switch neighbor.
func (r *Router) attach(n topology.NodeID) (topology.NodeID, error) {
	if r.rankOf(n) >= 0 {
		return n, nil
	}
	if n < 0 || int(n) >= r.g.NumNodes() {
		return topology.None, fmt.Errorf("routing: no node %d", n)
	}
	for _, id := range r.g.Ports(n) {
		if id < 0 || !r.usable(id) {
			continue
		}
		if m := r.g.LinkRef(id).Other(n); r.rankOf(m) >= 0 {
			return m, nil
		}
	}
	return topology.None, fmt.Errorf("%w: host %d", ErrNotAttached, n)
}

// ShortestUnrestricted returns a minimum-hop switch path from src to dst
// (both may be hosts; the returned path includes them). It ignores the
// up*/down* restriction — the baseline routing for experiment E12.
func (r *Router) ShortestUnrestricted(src, dst topology.NodeID) ([]topology.NodeID, error) {
	return r.shortest(src, dst, false)
}

// ShortestLegal returns a minimum-hop up*/down*-legal path from src to dst.
func (r *Router) ShortestLegal(src, dst topology.NodeID) ([]topology.NodeID, error) {
	return r.shortest(src, dst, true)
}

// shortest reads the route off the source switch's forest, growing the
// forest on the first request from that switch.
func (r *Router) shortest(src, dst topology.NodeID, legal bool) ([]topology.NodeID, error) {
	sSrc, err := r.attach(src)
	if err != nil {
		return nil, err
	}
	sDst, err := r.attach(dst)
	if err != nil {
		return nil, err
	}
	forests := r.unrestricted
	if legal {
		forests = r.legal
	}
	f := forests[r.rank[sSrc]]
	if f == nil {
		f = r.grow(r.rank[sSrc], legal)
		forests[r.rank[sSrc]] = f
	}
	goal := f.goal[r.rank[sDst]]
	if goal == unreached {
		return nil, fmt.Errorf("%w: %d -> %d", ErrNoRoute, sSrc, sDst)
	}
	return r.path(src, sSrc, dst, sDst, f.pred, goal), nil
}

// A search state is a (switch, wentDown) pair, encoded 2*rank + wentDown.
// pred arrays map a state to the state it was reached from.
const (
	unreached int32 = -1 // the search never got to this state
	rootState int32 = -2 // pred of the state the search started in
)

// forest is one source switch's breadth-first search over states, run to
// completion: FIFO, ports ascending, a state keeps the first predecessor to
// reach it. A search that stopped at the first state of some destination
// would have made exactly the same discoveries up to that point, so goal
// and pred give the path that search would have returned — including which
// of several equal-length paths.
type forest struct {
	pred []int32 // by state
	goal []int32 // by switch rank: the first of its states discovered
}

// grow builds the forest of source switch src (a rank). 12 bytes per switch.
func (r *Router) grow(src int32, legal bool) *forest {
	n := len(r.switches)
	f := &forest{pred: make([]int32, 2*n), goal: make([]int32, n)}
	for i := range f.pred {
		f.pred[i] = unreached
	}
	for i := range f.goal {
		f.goal[i] = unreached
	}
	f.pred[2*src], f.goal[src] = rootState, 2*src
	queue := append(make([]int32, 0, 2*n), 2*src)
	for head := 0; head < len(queue); head++ {
		st := queue[head]
		for _, id := range r.g.Ports(r.switches[st>>1]) {
			next, ok := r.step(st, id, legal)
			if !ok || f.pred[next] != unreached {
				continue
			}
			f.pred[next] = st
			if f.goal[next>>1] == unreached {
				f.goal[next>>1] = next
			}
			queue = append(queue, next)
		}
	}
	return f
}

// step returns the state reached by leaving state st on the link at one of
// its switch's ports. There is none if the port is free, the link dead or a
// host link, or — under the up*/down* rule — the move goes up after the
// path has gone down. Without the rule the wentDown bit stays clear.
func (r *Router) step(st int32, id topology.LinkID, legal bool) (int32, bool) {
	if id < 0 || !r.usable(id) {
		return 0, false
	}
	up := r.up(id)
	if up == topology.None {
		return 0, false
	}
	m := r.g.LinkRef(id).Other(r.switches[st>>1])
	wentDown, goingUp := st&1 == 1, up == m
	if wentDown && goingUp {
		return 0, false // down then up: illegal (wentDown is never set unless legal)
	}
	next := 2 * r.rank[m]
	if wentDown || (legal && !goingUp) {
		next++
	}
	return next, true
}

// path materialises the route from src to dst whose switch part a search
// from sSrc ended in state goal: it walks pred back to the start and writes
// the switches in travel order between the host endpoints, if any.
func (r *Router) path(src, sSrc, dst, sDst topology.NodeID, pred []int32, goal int32) []topology.NodeID {
	n := 0
	for st := goal; st != rootState; st = pred[st] {
		n++
	}
	out := make([]topology.NodeID, 0, n+2)
	if src != sSrc {
		out = append(out, src)
	}
	out = out[:len(out)+n]
	for st, i := goal, len(out)-1; st != rootState; st, i = pred[st], i-1 {
		out[i] = r.switches[st>>1]
	}
	if dst != sDst {
		out = append(out, dst)
	}
	return out
}

// directedLink identifies one direction of a link, the unit of buffer
// ownership in the dependency analysis.
type directedLink struct {
	link topology.LinkID
	from topology.NodeID
}

// DependencyCycle analyzes a set of routes under FIFO (shared per-link)
// buffering: it builds the buffer-wait graph whose vertices are directed
// links and whose edges join consecutive links of a route, and reports a
// cycle if one exists (the deadlock precondition of §5). The returned
// slice is nil when the routes are deadlock-free.
func DependencyCycle(g *topology.Graph, routes [][]topology.NodeID) []topology.NodeID {
	adj := make(map[directedLink][]directedLink)
	nodeOf := make(map[directedLink]topology.NodeID)
	for _, path := range routes {
		var prev *directedLink
		for i := 0; i+1 < len(path); i++ {
			l, ok := g.LinkBetween(path[i], path[i+1])
			if !ok {
				continue
			}
			cur := directedLink{link: l.ID, from: path[i]}
			nodeOf[cur] = path[i]
			if prev != nil {
				adj[*prev] = append(adj[*prev], cur)
			}
			prevCopy := cur
			prev = &prevCopy
		}
	}
	// DFS cycle detection.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[directedLink]int)
	var cycle []topology.NodeID
	var dfs func(v directedLink) bool
	dfs = func(v directedLink) bool {
		color[v] = gray
		for _, w := range adj[v] {
			switch color[w] {
			case white:
				if dfs(w) {
					cycle = append(cycle, nodeOf[v])
					return true
				}
			case gray:
				cycle = append(cycle, nodeOf[w], nodeOf[v])
				return true
			}
		}
		color[v] = black
		return false
	}
	for v := range adj {
		if color[v] == white && dfs(v) {
			return cycle
		}
	}
	return nil
}
