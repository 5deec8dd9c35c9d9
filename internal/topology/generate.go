package topology

import (
	"fmt"
	"math/rand"
)

// This file provides the topology generators used throughout the
// experiments. Every generator takes a seeded *rand.Rand where randomness
// is involved so runs are reproducible.

// Line builds a linear chain of n switches: s0 - s1 - ... - s(n-1).
// The linear chain is the worst case for the propagation-order spanning
// tree (paper §2: "in the worst case, the tree could be linear").
func Line(n int, latency int64) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: Line needs n >= 1, got %d", n)
	}
	g := New()
	prev := None
	for i := 0; i < n; i++ {
		s := g.AddSwitch(fmt.Sprintf("s%d", i))
		if prev != None {
			if _, err := g.Connect(prev, s, latency); err != nil {
				return nil, err
			}
		}
		prev = s
	}
	return g, nil
}

// Ring builds a cycle of n switches.
func Ring(n int, latency int64) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("topology: Ring needs n >= 3, got %d", n)
	}
	g, err := Line(n, latency)
	if err != nil {
		return nil, err
	}
	if _, err := g.Connect(NodeID(0), NodeID(n-1), latency); err != nil {
		return nil, err
	}
	return g, nil
}

// Tree builds a complete k-ary tree of switches with the given number of
// levels (levels >= 1; level 1 is just the root).
func Tree(fanout, levels int, latency int64) (*Graph, error) {
	if fanout < 1 || fanout >= PortsPerSwitch {
		return nil, fmt.Errorf("topology: Tree fanout must be 1..%d, got %d", PortsPerSwitch-1, fanout)
	}
	if levels < 1 {
		return nil, fmt.Errorf("topology: Tree needs levels >= 1, got %d", levels)
	}
	g := New()
	var build func(depth int, parent NodeID) error
	var count int
	build = func(depth int, parent NodeID) error {
		id := g.AddSwitch(fmt.Sprintf("t%d", count))
		count++
		if parent != None {
			if _, err := g.Connect(parent, id, latency); err != nil {
				return err
			}
		}
		if depth+1 < levels {
			for i := 0; i < fanout; i++ {
				if err := build(depth+1, id); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := build(0, None); err != nil {
		return nil, err
	}
	return g, nil
}

// Torus builds a rows×cols 2-D torus of switches (each switch has 4
// switch-links). rows and cols must be >= 3 to avoid duplicate links.
func Torus(rows, cols int, latency int64) (*Graph, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("topology: Torus needs rows,cols >= 3, got %d×%d", rows, cols)
	}
	g := New()
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.AddSwitch(fmt.Sprintf("s%d.%d", r, c))
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if _, err := g.Connect(id(r, c), id(r, (c+1)%cols), latency); err != nil {
				return nil, err
			}
			if _, err := g.Connect(id(r, c), id((r+1)%rows, c), latency); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// RandomConnected builds a random connected switch graph: a uniform random
// spanning tree plus extra random links for redundancy. extra is the number
// of additional links attempted beyond the tree (port and duplicate limits
// permitting).
func RandomConnected(rng *rand.Rand, n, extra int, latency int64) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: RandomConnected needs n >= 1, got %d", n)
	}
	g := New()
	for i := 0; i < n; i++ {
		g.AddSwitch(fmt.Sprintf("s%d", i))
	}
	// Random spanning tree: attach each node (in random order) to a random
	// earlier node.
	perm := randPerm(rng, n)
	for i := 1; i < n; i++ {
		a := NodeID(perm[i])
		b := NodeID(perm[rng.Intn(i)])
		if _, err := g.Connect(a, b, latency); err != nil {
			return nil, err
		}
	}
	for i := 0; i < extra; i++ {
		a := NodeID(rng.Intn(n))
		b := NodeID(rng.Intn(n))
		if a == b {
			continue
		}
		// Best-effort: skip failures (duplicate or full ports).
		_, _ = g.Connect(a, b, latency)
	}
	return g, nil
}

// SRCLike builds a redundant installation in the spirit of Figure 1 and of
// SRC's production AN1 LAN: a core of meshed switches, an edge layer of
// switches each dual-homed to the core, and hosts dual-homed to edge
// switches. Every switch has at least two disjoint paths to every other, so
// no single failure partitions the network.
func SRCLike(rng *rand.Rand, coreSize, edgeSize, hostCount int, latency int64) (*Graph, error) {
	if coreSize < 2 {
		return nil, fmt.Errorf("topology: SRCLike needs coreSize >= 2, got %d", coreSize)
	}
	if edgeSize < 1 {
		return nil, fmt.Errorf("topology: SRCLike needs edgeSize >= 1, got %d", edgeSize)
	}
	g := New()
	core := make([]NodeID, coreSize)
	for i := range core {
		core[i] = g.AddSwitch(fmt.Sprintf("core%d", i))
	}
	// Core ring plus chords for redundancy.
	for i := range core {
		if _, err := g.Connect(core[i], core[(i+1)%coreSize], latency); err != nil && coreSize > 2 {
			return nil, err
		}
	}
	if coreSize > 3 {
		for i := range core {
			_, _ = g.Connect(core[i], core[(i+2)%coreSize], latency)
		}
	}
	// freeCore picks a random core switch with a free port, excluding
	// `not` (None to exclude nothing). Random dual-homing can exhaust a
	// popular core's 16 ports, so the draw retries against port
	// availability.
	freeCore := func(not NodeID) (NodeID, error) {
		var candidates []NodeID
		for _, c := range core {
			if c == not {
				continue
			}
			if g.freePort(c) >= 0 {
				candidates = append(candidates, c)
			}
		}
		if len(candidates) == 0 {
			return None, fmt.Errorf("topology: SRCLike: core ports exhausted (%d cores for %d edges)", coreSize, edgeSize)
		}
		return candidates[rng.Intn(len(candidates))], nil
	}
	edge := make([]NodeID, edgeSize)
	for i := range edge {
		edge[i] = g.AddSwitch(fmt.Sprintf("edge%d", i))
		// Dual-home each edge switch to two distinct core switches.
		c1, err := freeCore(None)
		if err != nil {
			return nil, err
		}
		if _, err := g.Connect(edge[i], c1, latency); err != nil {
			return nil, err
		}
		c2, err := freeCore(c1)
		if err != nil {
			return nil, err
		}
		if _, err := g.Connect(edge[i], c2, latency); err != nil {
			return nil, err
		}
	}
	// freeEdge mirrors freeCore for the host attachment layer.
	freeEdge := func(not NodeID) (NodeID, error) {
		var candidates []NodeID
		for _, e := range edge {
			if e == not {
				continue
			}
			if g.freePort(e) >= 0 {
				candidates = append(candidates, e)
			}
		}
		if len(candidates) == 0 {
			return None, fmt.Errorf("topology: SRCLike: edge ports exhausted (%d edges for %d hosts)", edgeSize, hostCount)
		}
		return candidates[rng.Intn(len(candidates))], nil
	}
	for i := 0; i < hostCount; i++ {
		h := g.AddHost(fmt.Sprintf("host%d", i))
		e1, err := freeEdge(None)
		if err != nil {
			return nil, err
		}
		if _, err := g.Connect(h, e1, latency); err != nil {
			return nil, err
		}
		if edgeSize > 1 {
			// Alternate link: used only if the first fails.
			e2, err := freeEdge(e1)
			if err != nil {
				return nil, err
			}
			if _, err := g.Connect(h, e2, latency); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// AttachHosts adds hostsPerSwitch hosts to every switch in g (single-homed,
// for data-plane experiments where host redundancy is irrelevant). On port
// exhaustion the error names the exhausted switch and its port budget so
// asymmetric graphs (where only one switch is full) are diagnosable.
func AttachHosts(g *Graph, hostsPerSwitch int, latency int64) error {
	for _, s := range g.Switches() {
		sn, _ := g.Node(s)
		for i := 0; i < hostsPerSwitch; i++ {
			name := fmt.Sprintf("h%d.%d", s, i)
			h := g.AddHost(name)
			if _, err := g.Connect(h, s, latency); err != nil {
				used := len(g.LinksOf(s))
				return fmt.Errorf("topology: AttachHosts: switch %q out of ports attaching host %d of %d (%d of %d ports in use): %w",
					sn.Name, i+1, hostsPerSwitch, used, sn.NumPorts(), err)
			}
		}
	}
	return nil
}
