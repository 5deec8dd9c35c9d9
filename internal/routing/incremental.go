package routing

import (
	"errors"
	"fmt"

	"repro/internal/topology"
)

// This file implements incremental up*/down* recomputation. After a fault
// confined to one region of the fabric (in a fat-tree: one pod), the BFS
// levels of every switch outside the region are unchanged, so the
// orientation can be patched by re-leveling only the region from its
// boundary instead of rerunning BuildTree over the whole fabric. On a
// fat-tree this turns an O(fabric) recompute into an O(pod) one.
//
// Soundness precondition: no shortest path from the root to a switch
// outside the region transits the region. This holds for intra-pod faults
// in a fat-tree rooted at a spine (pods are leaves of the inter-pod
// structure: with >= 2 pods, no outside-to-outside shortest path shortens
// or lengthens through any single pod). RepairTree additionally checks the
// boundary levels it produces and fails loudly when the precondition is
// detectably violated, so callers can fall back to a full BuildTree.

// ErrRepairUnsound is wrapped by RepairTree when the patched region is
// inconsistent with the fixed levels outside it — the fault was not
// confined to the region and a full BuildTree is required.
var ErrRepairUnsound = errors.New("routing: incremental repair unsound for this region")

// RepairTree returns a new orientation tree equal to
// BuildTree(g, base.Root, filter) under the precondition above, but
// recomputing levels only for the switches in region. Switches outside the
// region keep their base levels; their parents are refreshed where the
// repair could have changed them (neighbors of the region). Region
// switches unreachable under filter are dropped from the tree, exactly as
// BuildTree drops them.
//
// The base tree is not modified. If region contains the root, or the
// patched boundary is inconsistent (ErrRepairUnsound), the caller must
// rebuild from scratch.
func RepairTree(g *topology.Graph, base *Tree, region map[topology.NodeID]bool, filter topology.LinkFilter) (*Tree, error) {
	if base == nil || len(base.Level) == 0 {
		return nil, errors.New("routing: RepairTree needs a non-empty base tree")
	}
	if region[base.Root] {
		return nil, fmt.Errorf("routing: RepairTree: region contains root %d; full rebuild required", base.Root)
	}
	// usable reports whether the link on a port (-1: none) is a
	// switch-to-switch link the filter accepts.
	usable := func(id topology.LinkID) bool {
		return id >= 0 && g.SwitchOnly(*g.LinkRef(id)) && (filter == nil || filter(*g.LinkRef(id)))
	}
	t := &Tree{
		Root:   base.Root,
		Level:  make(map[topology.NodeID]int, len(base.Level)),
		Parent: make(map[topology.NodeID]topology.NodeID, len(base.Parent)),
	}
	for s, lv := range base.Level {
		if !region[s] {
			t.Level[s] = lv
		}
	}
	for s, p := range base.Parent {
		if !region[s] {
			t.Parent[s] = p
		}
	}

	// Seed every region switch with its best level through the fixed
	// boundary: one more than the smallest live outside-neighbor level.
	buckets := make(map[int][]topology.NodeID)
	maxLv := 0
	for s := range region {
		node, ok := g.Node(s)
		if !ok || node.Kind != topology.Switch {
			continue
		}
		best := -1
		for _, id := range g.Ports(s) {
			if !usable(id) {
				continue
			}
			m := g.LinkRef(id).Other(s)
			if region[m] {
				continue
			}
			if lv, ok := t.Level[m]; ok && (best < 0 || lv+1 < best) {
				best = lv + 1
			}
		}
		if best >= 0 {
			buckets[best] = append(buckets[best], s)
			if best > maxLv {
				maxLv = best
			}
		}
	}

	// Multi-source BFS inside the region. Sources start at different
	// levels, so process buckets in ascending order (a unit-weight
	// Dijkstra); the first time a switch is settled, its level is final.
	dist := make(map[topology.NodeID]int)
	for lv := 0; lv <= maxLv; lv++ {
		for i := 0; i < len(buckets[lv]); i++ {
			s := buckets[lv][i]
			if _, done := dist[s]; done {
				continue
			}
			dist[s] = lv
			for _, id := range g.Ports(s) {
				if !usable(id) {
					continue
				}
				m := g.LinkRef(id).Other(s)
				if !region[m] {
					continue
				}
				if _, done := dist[m]; done {
					continue
				}
				buckets[lv+1] = append(buckets[lv+1], m)
				if lv+1 > maxLv {
					maxLv = lv + 1
				}
			}
		}
	}
	for s, d := range dist {
		t.Level[s] = d
	}

	// Boundary consistency: every live link out of the region must join
	// levels differing by at most one, as in any true BFS leveling. A
	// violation means an outside level is stale — the fault was not
	// confined to the region.
	for s := range region {
		d, ok := dist[s]
		if !ok {
			continue
		}
		for _, id := range g.Ports(s) {
			if !usable(id) {
				continue
			}
			m := g.LinkRef(id).Other(s)
			if region[m] {
				continue
			}
			if lv, ok := t.Level[m]; ok && d < lv-1 {
				return nil, fmt.Errorf("%w: region switch %d at level %d borders fixed switch %d at level %d",
					ErrRepairUnsound, s, d, m, lv)
			}
		}
	}

	// Parents inside the region: BuildTree's deterministic tie-break —
	// first link in port order whose other end is one level up.
	setParent := func(s topology.NodeID) {
		for _, id := range g.Ports(s) {
			if !usable(id) {
				continue
			}
			m := g.LinkRef(id).Other(s)
			if lv, ok := t.Level[m]; ok && lv == t.Level[s]-1 {
				t.Parent[s] = m
				return
			}
		}
	}
	for s := range dist {
		setParent(s)
	}

	// Refresh parents of switches just outside the region: their level is
	// fixed, but their first-port-order up-neighbor may have been a region
	// switch whose level changed, or may sit across a now-dead link.
	// (Their parent choice depends only on their own level, their
	// neighbors' levels, and the filter — all unchanged elsewhere.)
	refresh := make(map[topology.NodeID]bool)
	for s := range region {
		node, ok := g.Node(s)
		if !ok || node.Kind != topology.Switch {
			continue
		}
		for _, id := range g.Ports(s) {
			if id < 0 {
				continue
			}
			m := g.LinkRef(id).Other(s)
			if mn, ok := g.Node(m); ok && mn.Kind == topology.Switch && !region[m] {
				refresh[m] = true
			}
		}
	}
	for b := range refresh {
		if b == t.Root {
			continue
		}
		if _, ok := t.Level[b]; !ok {
			continue
		}
		delete(t.Parent, b)
		setParent(b)
	}
	return t, nil
}
