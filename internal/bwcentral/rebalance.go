package bwcentral

import (
	"repro/internal/cell"
	"repro/internal/routing"
	"repro/internal/topology"
)

// This file implements the paper's most speculative §2 extension:
//
//	"A more speculative option is to reroute circuits to balance the load
//	 on the network. The mechanics of rerouting are no more difficult than
//	 in the earlier cases. However, algorithms to determine when and where
//	 circuits should be moved have yet to be considered."
//
// The algorithm here is a greedy hill-climber on the network's bottleneck:
// find the most-reserved link, and among the circuits crossing it look for
// the single reroute (onto an alternate up*/down*-legal path with room)
// that most reduces the maximum link load without creating an equally bad
// hotspot elsewhere. Repeat until no improving move exists or the move
// budget runs out. Each accepted move is exactly a reroute the mechanics
// of §2 already support (tear down on the old path, set up on the new).

// Move records one accepted rebalancing reroute.
type Move struct {
	VC      cell.VCI
	OldPath []topology.NodeID
	NewPath []topology.NodeID
	// MaxLoadBefore/After are the network-wide maximum reserved
	// cells/frame around this move.
	MaxLoadBefore int
	MaxLoadAfter  int
}

// MaxLoad returns the largest reserved cells/frame on any link.
func (c *Central) MaxLoad() int {
	maxLoad := 0
	for _, v := range c.reserved {
		if v > maxLoad {
			maxLoad = v
		}
	}
	return maxLoad
}

// hottestLink returns the link id with the highest reservation (ties to
// the lowest id, for determinism), or -1 if nothing is reserved.
func (c *Central) hottestLink() topology.LinkID {
	best := topology.LinkID(-1)
	bestLoad := 0
	for id, v := range c.reserved {
		if v > bestLoad {
			best, bestLoad = topology.LinkID(id), v
		}
	}
	return best
}

// circuitsOn returns the reservations traversing a link, most bandwidth
// first (moving a big circuit helps most), ties by VC for determinism.
func (c *Central) circuitsOn(id topology.LinkID) []*Reservation {
	var out []*Reservation
	for _, res := range c.grants {
		for _, l := range res.Links {
			if l == id {
				out = append(out, res)
				break
			}
		}
	}
	// Insertion sort by (CellsPerFrame desc, VC asc): the list is small.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if a.CellsPerFrame > b.CellsPerFrame || (a.CellsPerFrame == b.CellsPerFrame && a.VC < b.VC) {
				break
			}
			out[j-1], out[j] = b, a
		}
	}
	return out
}

// Rebalance performs up to maxMoves improving reroutes and returns them.
// After each accepted move the caller is expected to apply the
// corresponding data-plane reroute (simnet.Reroute / a new setup cell from
// the break point).
func (c *Central) Rebalance(maxMoves int) []Move {
	var moves []Move
	for len(moves) < maxMoves {
		mv, ok := c.improveOnce()
		if !ok {
			break
		}
		moves = append(moves, mv)
	}
	return moves
}

// improveOnce attempts a single improving move on the hottest link.
func (c *Central) improveOnce() (Move, bool) {
	before := c.MaxLoad()
	if before == 0 {
		return Move{}, false
	}
	hot := c.hottestLink()
	for _, res := range c.circuitsOn(hot) {
		// Temporarily remove the circuit, route it fresh with a
		// load-aware weight, and keep the result only if the bottleneck
		// improves.
		oldLinks := res.Links
		for _, id := range oldLinks {
			c.reserved[id] -= res.CellsPerFrame
		}
		weight := c.rebalanceWeight(res.CellsPerFrame)
		path, _, err := c.cfg.Router.WeightedLegal(res.Src, res.Dst, weight)
		if err == nil {
			if ids, err2 := c.pathLinks(path); err2 == nil {
				// Trial-commit.
				for _, id := range ids {
					c.reserved[id] += res.CellsPerFrame
				}
				after := c.MaxLoad()
				if after < before && !samePath(ids, oldLinks) {
					mv := Move{
						VC:            res.VC,
						OldPath:       res.Path,
						NewPath:       path,
						MaxLoadBefore: before,
						MaxLoadAfter:  after,
					}
					res.Path = path
					res.Links = ids
					return mv, true
				}
				// Not an improvement: undo the trial.
				for _, id := range ids {
					c.reserved[id] -= res.CellsPerFrame
				}
			}
		}
		// Restore the original placement.
		for _, id := range oldLinks {
			c.reserved[id] += res.CellsPerFrame
		}
	}
	return Move{}, false
}

// rebalanceWeight penalizes load quadratically so the router actively
// avoids the current hotspot, while still refusing saturated links.
func (c *Central) rebalanceWeight(cellsPerFrame int) routing.WeightFunc {
	return func(l topology.Link) float64 {
		residual := c.cfg.LinkCapacity - c.reserved[l.ID]
		if residual < cellsPerFrame {
			return -1
		}
		load := float64(c.reserved[l.ID]) / float64(c.cfg.LinkCapacity)
		return 1 + 8*load*load
	}
}

func samePath(a, b []topology.LinkID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
