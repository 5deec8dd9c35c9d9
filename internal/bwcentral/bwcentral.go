// Package bwcentral implements AN2's "bandwidth central" (paper §4): the
// network service that resolves guaranteed-bandwidth reservations.
//
// Because it resolves all requests, bandwidth central knows the unreserved
// capacity of every link. A new request is granted if there is a path
// between source and destination on which each link has enough unreserved
// bandwidth; otherwise it is denied. When multiple routes are possible,
// bandwidth central chooses among them (the paper points to the Paris
// network's heuristics for route selection).
//
// For the first realization of AN2, bandwidth central resides at a single
// switch, chosen during reconfiguration; Elect models that choice.
package bwcentral

import (
	"errors"
	"fmt"

	"repro/internal/cell"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Policy selects the route-choice heuristic.
type Policy int

const (
	// MinHop takes the shortest legal path, ignoring load.
	MinHop Policy = iota + 1
	// LeastLoaded weighs links by their reserved fraction, steering new
	// circuits away from hot links at the cost of longer paths.
	LeastLoaded
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case MinHop:
		return "min-hop"
	case LeastLoaded:
		return "least-loaded"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config configures bandwidth central.
type Config struct {
	// Topology is the network.
	Topology *topology.Graph
	// Router computes candidate routes (its orientation tree came from
	// the last reconfiguration).
	Router *routing.Router
	// LinkCapacity is each link's guaranteed capacity in cells/frame
	// (the frame being schedule.DefaultFrameSlots unless the switches
	// are configured otherwise).
	LinkCapacity int
	// Policy is the route-selection heuristic (default MinHop).
	Policy Policy
}

// Reservation is a granted bandwidth reservation.
type Reservation struct {
	VC            cell.VCI
	Src, Dst      topology.NodeID
	CellsPerFrame int
	Path          []topology.NodeID
	// Links are the links along the path.
	Links []topology.LinkID
}

// Central is the bandwidth-central service.
type Central struct {
	cfg Config
	// reserved[id] is the cells/frame granted on link id. Sized once: the
	// topology's links are fixed for a central's lifetime.
	reserved []int
	grants   map[cell.VCI]*Reservation
	nextVC   cell.VCI
	stats    Stats
}

// Stats counts admission outcomes.
type Stats struct {
	Granted int64
	Denied  int64
}

// Errors.
var (
	ErrConfig  = errors.New("bwcentral: incomplete config")
	ErrDenied  = errors.New("bwcentral: insufficient unreserved bandwidth")
	ErrUnknown = errors.New("bwcentral: unknown reservation")
	ErrBadRate = errors.New("bwcentral: cells/frame must be >= 1")
)

// New creates a bandwidth central.
func New(cfg Config) (*Central, error) {
	if cfg.Topology == nil || cfg.Router == nil || cfg.LinkCapacity < 1 {
		return nil, ErrConfig
	}
	if cfg.Policy == 0 {
		cfg.Policy = MinHop
	}
	return &Central{
		cfg:      cfg,
		reserved: make([]int, cfg.Topology.NumLinks()),
		grants:   make(map[cell.VCI]*Reservation),
		nextVC:   1,
	}, nil
}

// Stats returns admission counters.
func (c *Central) Stats() Stats { return c.stats }

// Reserved returns the reserved cells/frame on a link.
func (c *Central) Reserved(id topology.LinkID) int {
	if id < 0 || int(id) >= len(c.reserved) {
		return 0
	}
	return c.reserved[id]
}

// Residual returns the unreserved cells/frame on a link.
func (c *Central) Residual(id topology.LinkID) int {
	return c.cfg.LinkCapacity - c.Reserved(id)
}

// Request asks for a reservation of cellsPerFrame between two hosts. On
// success the chosen route is committed and returned; the caller then
// installs it at the switches (simnet.OpenGuaranteed or the real frame
// schedules).
func (c *Central) Request(src, dst topology.NodeID, cellsPerFrame int) (*Reservation, error) {
	if cellsPerFrame < 1 {
		return nil, ErrBadRate
	}
	path, _, err := c.cfg.Router.WeightedLegal(src, dst, c.weightFunc(cellsPerFrame))
	if err != nil {
		c.stats.Denied++
		return nil, fmt.Errorf("%w: %v", ErrDenied, err)
	}
	// The weight function excludes saturated switch-switch links; grant
	// checks the host links too.
	return c.grant(src, dst, path, cellsPerFrame)
}

// RequestPath commits a reservation along a caller-chosen path (used when
// re-registering existing circuits after a reconfiguration: the circuit
// keeps its data-plane route, and accounting must match it). The path must
// have room on every link.
func (c *Central) RequestPath(src, dst topology.NodeID, path []topology.NodeID, cellsPerFrame int) (*Reservation, error) {
	if cellsPerFrame < 1 {
		return nil, ErrBadRate
	}
	return c.grant(src, dst, append([]topology.NodeID(nil), path...), cellsPerFrame)
}

// pathLinks resolves a node path to the ids of its links.
func (c *Central) pathLinks(path []topology.NodeID) ([]topology.LinkID, error) {
	ids := make([]topology.LinkID, 0, max(len(path)-1, 0))
	for i := 0; i+1 < len(path); i++ {
		l, ok := c.cfg.Topology.LinkBetween(path[i], path[i+1])
		if !ok {
			return nil, fmt.Errorf("bwcentral: resolve path: no link %d-%d", path[i], path[i+1])
		}
		ids = append(ids, l.ID)
	}
	return ids, nil
}

// grant commits cellsPerFrame on every link of path, which the reservation
// keeps, or denies the request if some link lacks the room.
func (c *Central) grant(src, dst topology.NodeID, path []topology.NodeID, cellsPerFrame int) (*Reservation, error) {
	links, err := c.pathLinks(path)
	if err != nil {
		c.stats.Denied++
		return nil, err
	}
	for _, id := range links {
		if c.reserved[id]+cellsPerFrame > c.cfg.LinkCapacity {
			c.stats.Denied++
			return nil, fmt.Errorf("%w: link %d", ErrDenied, id)
		}
	}
	res := &Reservation{
		VC:            c.nextVC,
		Src:           src,
		Dst:           dst,
		CellsPerFrame: cellsPerFrame,
		Path:          path,
		Links:         links,
	}
	c.nextVC++
	for _, id := range links {
		c.reserved[id] += cellsPerFrame
	}
	c.grants[res.VC] = res
	c.stats.Granted++
	return res, nil
}

// Release returns a reservation's bandwidth to the pool.
func (c *Central) Release(vc cell.VCI) error {
	res, ok := c.grants[vc]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknown, vc)
	}
	for _, id := range res.Links {
		c.reserved[id] -= res.CellsPerFrame
		if c.reserved[id] < 0 {
			c.reserved[id] = 0
		}
	}
	delete(c.grants, vc)
	return nil
}

// weightFunc builds the link weighting for the configured policy. Links
// without room for the request are excluded outright (negative weight).
func (c *Central) weightFunc(cellsPerFrame int) routing.WeightFunc {
	switch c.cfg.Policy {
	case LeastLoaded:
		return func(l topology.Link) float64 {
			residual := c.cfg.LinkCapacity - c.reserved[l.ID]
			if residual < cellsPerFrame {
				return -1 // saturated: unusable
			}
			load := float64(c.reserved[l.ID]) / float64(c.cfg.LinkCapacity)
			// 1 hop plus a load penalty: a fully loaded link costs as
			// much as 4 extra hops, so detours happen only when worth it.
			return 1 + 4*load
		}
	default: // MinHop
		return func(l topology.Link) float64 {
			residual := c.cfg.LinkCapacity - c.reserved[l.ID]
			if residual < cellsPerFrame {
				return -1
			}
			return 1
		}
	}
}

// Elect picks the switch that hosts bandwidth central: the live switch
// with the highest UID (deterministic across all switches, computable from
// the topology every switch learned during reconfiguration).
func Elect(g *topology.Graph, dead map[topology.NodeID]bool) (topology.NodeID, error) {
	best := topology.None
	var bestUID uint64
	for _, s := range g.Switches() {
		if dead[s] {
			continue
		}
		n, ok := g.Node(s)
		if !ok {
			continue
		}
		if best == topology.None || n.UID > bestUID {
			best = s
			bestUID = n.UID
		}
	}
	if best == topology.None {
		return topology.None, errors.New("bwcentral: no live switches")
	}
	return best, nil
}
