package routing

import (
	"fmt"
	"math"

	"repro/internal/topology"
)

// WeightFunc assigns a cost to traversing a link. Costs must be >= 0.
// Bandwidth central uses load-dependent weights to steer reservations away
// from congested links (cf. the Paris route-selection heuristics the paper
// cites).
type WeightFunc func(topology.Link) float64

// WeightedLegal returns the minimum-cost up*/down*-legal path from src to
// dst under the given weights, via Dijkstra over (switch, wentDown)
// states. Hosts are resolved to their attachment switches as in
// ShortestLegal.
func (r *Router) WeightedLegal(src, dst topology.NodeID, weight WeightFunc) ([]topology.NodeID, float64, error) {
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
	goal, cost, err := r.dijkstra(sSrc, sDst, weight)
	if err != nil {
		return nil, 0, err
	}
	return r.path(src, sSrc, dst, sDst, r.search.pred, goal), cost, nil
}

// search is the Dijkstra working set, kept across requests. dist and pred
// of a state are this search's if seen[state] == cur, and the state is
// settled if done[state] == cur, so starting a search clears nothing.
type search struct {
	cur        uint32
	seen, done []uint32
	dist       []float64
	pred       []int32
	heap       []frontier
}

// frontier is a Dijkstra frontier entry.
type frontier struct {
	dist  float64
	state int32
}

// push and pop are the standard library heap's Push and Pop on a slice of
// values ordered by dist alone. The sift order is part of the contract:
// entries of equal distance must leave in that order, or a different one of
// several equal-cost paths wins and published tables move.
func (s *search) push(f frontier) {
	h := append(s.heap, f)
	for j := len(h) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	s.heap = h
}

func (s *search) pop() frontier {
	h := s.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	s.heap = h[:n]
	return h[n]
}

// dijkstra returns the first state of dst settled by a search from src and
// its cost; the path is in r.search.pred until the next search.
func (r *Router) dijkstra(src, dst topology.NodeID, weight WeightFunc) (int32, float64, error) {
	s := r.search
	if s == nil {
		n := 2 * len(r.switches)
		s = &search{seen: make([]uint32, n), done: make([]uint32, n), dist: make([]float64, n), pred: make([]int32, n)}
		r.search = s
	}
	if s.cur++; s.cur == 0 { // wrapped: old stamps would look current
		clear(s.seen)
		clear(s.done)
		s.cur = 1
	}
	start := 2 * r.rank[src]
	s.seen[start], s.dist[start], s.pred[start] = s.cur, 0, rootState
	s.heap = s.heap[:0]
	s.push(frontier{state: start})
	for len(s.heap) > 0 {
		it := s.pop()
		st := it.state
		if s.done[st] == s.cur {
			continue
		}
		s.done[st] = s.cur
		node := r.switches[st>>1]
		if node == dst {
			return st, it.dist, nil
		}
		for _, id := range r.g.Ports(node) {
			next, ok := r.step(st, id, true)
			if !ok {
				continue
			}
			w := weight(*r.g.LinkRef(id))
			if w < 0 || math.IsInf(w, 1) || math.IsNaN(w) {
				continue // unusable under this weighting
			}
			nd := it.dist + w
			if s.seen[next] != s.cur || nd < s.dist[next] {
				s.seen[next], s.dist[next], s.pred[next] = s.cur, nd, st
				s.push(frontier{dist: nd, state: next})
			}
		}
	}
	return 0, 0, fmt.Errorf("%w: %d -> %d", ErrNoRoute, src, dst)
}
