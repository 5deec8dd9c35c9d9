package topology

import "fmt"

// This file implements the parametric two-layer fat-tree generator after
// "Automated Design of Two-Layer Fat-Tree Networks" (arXiv 1301.6179): the
// fabric is a set of identical pods — each pod a bipartite edge/aggregation
// layer — interconnected by spine switches arranged in planes. All
// dimensioning follows from the switch radix r, the hosts per edge switch
// h, and the edge oversubscription ratio o (host bandwidth : uplink
// bandwidth at the edge layer). With o = 1 the fabric has full bisection
// bandwidth: every layer carries as many uplinks as the layer below
// carries host links.
//
// Derived parameters (u = uplinks per edge, A = aggs per pod, E = edges
// per pod, S = spine uplinks per agg):
//
//	u = ceil(h / o)            edge: h host ports + u uplinks <= r
//	A = u                      each edge connects once to every agg
//	E = largest E with E + ceil(E/o) <= r
//	S = ceil(E / o)            agg: E down-ports + S uplinks <= r
//
// Spines form A planes of S switches. Spine (j,k) connects to aggregation
// switch j of every pod, so pods <= r. Total switches = pods*(E+A) + A*S;
// total hosts = pods*E*h.

// FatTreeConfig parametrizes FatTree. Zero-valued fields take defaults.
type FatTreeConfig struct {
	// Radix is the port count of every switch in the fabric. Required,
	// >= 4.
	Radix int
	// Pods is the number of pods. Required, 1 <= Pods <= Radix.
	Pods int
	// HostsPerEdge is the number of hosts attached to each edge (leaf)
	// switch. Default Radix/2 (the balanced split).
	HostsPerEdge int
	// Oversub is the edge oversubscription ratio h:u (1 = full bisection,
	// 2 = 2:1, ...). Default 1. Must be >= 1.
	Oversub float64
	// LinkLatency is the propagation delay of every fabric link in slots.
	// Default 1.
	LinkLatency int64
	// Hosts disables host attachment when false... default true via
	// NoHosts: set NoHosts to build the switch fabric only.
	NoHosts bool
}

// FatTreeInfo describes the generated fabric: the resolved configuration,
// the derived layer sizes, and the node-id layout. Pod switch ids are
// contiguous (edges then aggs per pod) and spines follow the last pod, so
// pod p's switches occupy one dense NodeID range.
type FatTreeInfo struct {
	Config FatTreeConfig

	// Derived layer sizes.
	EdgeUplinks int // u: uplinks per edge switch
	AggsPerPod  int // A
	EdgesPerPod int // E
	SpineLinks  int // S: spine uplinks per agg; spines per plane
	SpinePlanes int // = A

	// Layout.
	Edges  [][]NodeID // per pod, the edge switches
	Aggs   [][]NodeID // per pod, the aggregation switches
	Pods   [][]NodeID // per pod, all switches (edges then aggs)
	Spines []NodeID   // all spine switches, plane-major
	Hosts  [][]NodeID // per pod, attached hosts (nil with NoHosts)
	// Root is the suggested up*/down* orientation root (the first spine).
	Root NodeID
}

// resolve fills defaults and derives layer sizes, or reports why the
// configuration is infeasible.
func (cfg FatTreeConfig) resolve() (FatTreeConfig, FatTreeInfo, error) {
	info := FatTreeInfo{}
	if cfg.Radix < 4 {
		return cfg, info, fmt.Errorf("topology: FatTree radix must be >= 4, got %d", cfg.Radix)
	}
	if cfg.Oversub == 0 {
		cfg.Oversub = 1
	}
	if cfg.Oversub < 1 {
		return cfg, info, fmt.Errorf("topology: FatTree oversubscription must be >= 1, got %g", cfg.Oversub)
	}
	if cfg.HostsPerEdge == 0 {
		cfg.HostsPerEdge = cfg.Radix / 2
	}
	if cfg.HostsPerEdge < 1 {
		return cfg, info, fmt.Errorf("topology: FatTree needs hosts per edge >= 1, got %d", cfg.HostsPerEdge)
	}
	if cfg.Pods < 1 || cfg.Pods > cfg.Radix {
		return cfg, info, fmt.Errorf("topology: FatTree pods must be 1..radix (%d), got %d", cfg.Radix, cfg.Pods)
	}
	if cfg.LinkLatency == 0 {
		cfg.LinkLatency = 1
	}
	ceilDiv := func(a int, o float64) int {
		k := int(float64(a) / o)
		if float64(k)*o < float64(a) {
			k++
		}
		return k
	}
	u := ceilDiv(cfg.HostsPerEdge, cfg.Oversub)
	if cfg.HostsPerEdge+u > cfg.Radix {
		return cfg, info, fmt.Errorf("topology: FatTree edge needs %d host + %d uplink ports > radix %d (reduce hosts per edge or raise oversubscription)",
			cfg.HostsPerEdge, u, cfg.Radix)
	}
	// Largest E with E + ceil(E/o) <= radix.
	e := 0
	for cand := 1; cand <= cfg.Radix; cand++ {
		if cand+ceilDiv(cand, cfg.Oversub) <= cfg.Radix {
			e = cand
		}
	}
	if e == 0 {
		return cfg, info, fmt.Errorf("topology: FatTree radix %d too small for any aggregation layer", cfg.Radix)
	}
	s := ceilDiv(e, cfg.Oversub)
	info.Config = cfg
	info.EdgeUplinks = u
	info.AggsPerPod = u
	info.EdgesPerPod = e
	info.SpineLinks = s
	info.SpinePlanes = u
	return cfg, info, nil
}

// FatTree builds a two-layer fat-tree fabric per the package comment and
// returns the graph plus its layout. Pod switches are id-contiguous
// (edges then aggs), spines follow the last pod, hosts come last. Every
// node carries its Pod and Tier label (spines are pod NoPod).
func FatTree(cfg FatTreeConfig) (*Graph, *FatTreeInfo, error) {
	cfg, info, err := cfg.resolve()
	if err != nil {
		return nil, nil, err
	}
	g := New()
	addSwitch := func(name string, pod int, tier Tier) (NodeID, error) {
		id, err := g.AddSwitchPorts(name, cfg.Radix)
		if err != nil {
			return None, err
		}
		g.nodes[id].Pod = pod
		g.nodes[id].Tier = tier
		return id, nil
	}
	info.Edges = make([][]NodeID, cfg.Pods)
	info.Aggs = make([][]NodeID, cfg.Pods)
	info.Pods = make([][]NodeID, cfg.Pods)
	for p := 0; p < cfg.Pods; p++ {
		for i := 0; i < info.EdgesPerPod; i++ {
			id, err := addSwitch(fmt.Sprintf("p%de%d", p, i), p, TierEdge)
			if err != nil {
				return nil, nil, err
			}
			info.Edges[p] = append(info.Edges[p], id)
		}
		for j := 0; j < info.AggsPerPod; j++ {
			id, err := addSwitch(fmt.Sprintf("p%da%d", p, j), p, TierAgg)
			if err != nil {
				return nil, nil, err
			}
			info.Aggs[p] = append(info.Aggs[p], id)
		}
		info.Pods[p] = append(append([]NodeID(nil), info.Edges[p]...), info.Aggs[p]...)
		// Intra-pod bipartite wiring: edge i -- agg j for all i, j.
		for _, e := range info.Edges[p] {
			for _, a := range info.Aggs[p] {
				if _, err := g.Connect(e, a, cfg.LinkLatency); err != nil {
					return nil, nil, fmt.Errorf("topology: FatTree pod %d wiring: %w", p, err)
				}
			}
		}
	}
	// Spines: plane j serves aggregation switch j of every pod.
	for j := 0; j < info.SpinePlanes; j++ {
		for k := 0; k < info.SpineLinks; k++ {
			id, err := addSwitch(fmt.Sprintf("s%d.%d", j, k), NoPod, TierSpine)
			if err != nil {
				return nil, nil, err
			}
			info.Spines = append(info.Spines, id)
			for p := 0; p < cfg.Pods; p++ {
				if _, err := g.Connect(info.Aggs[p][j], id, cfg.LinkLatency); err != nil {
					return nil, nil, fmt.Errorf("topology: FatTree spine s%d.%d: %w", j, k, err)
				}
			}
		}
	}
	info.Root = info.Spines[0]
	if !cfg.NoHosts {
		info.Hosts = make([][]NodeID, cfg.Pods)
		for p := 0; p < cfg.Pods; p++ {
			for i, e := range info.Edges[p] {
				for m := 0; m < cfg.HostsPerEdge; m++ {
					h := g.AddHost(fmt.Sprintf("p%de%dh%d", p, i, m))
					g.nodes[h].Pod = p
					if _, err := g.Connect(h, e, cfg.LinkLatency); err != nil {
						return nil, nil, fmt.Errorf("topology: FatTree host p%de%dh%d: %w", p, i, m, err)
					}
					info.Hosts[p] = append(info.Hosts[p], h)
				}
			}
		}
	}
	return g, &info, nil
}

// NumSwitches returns the switch count of the described fabric.
func (info *FatTreeInfo) NumSwitches() int {
	return info.Config.Pods*(info.EdgesPerPod+info.AggsPerPod) + len(info.Spines)
}

// Bisection returns the fabric's bisection ratio as computed from the
// graph: the minimum over pods of min(uplink capacity / host capacity) at
// the edge and aggregation layers, counting live links accepted by filter
// (nil = all). 1.0 means full bisection bandwidth; a fabric generated
// with Oversub=1 always reports 1.0.
func (info *FatTreeInfo) Bisection(g *Graph, filter LinkFilter) float64 {
	if filter == nil {
		filter = AllLinks
	}
	kindOf := func(id NodeID) (pod int, tier Tier) {
		n, _ := g.Node(id)
		return n.Pod, n.Tier
	}
	min := -1.0
	for p := range info.Pods {
		hostLinks, edgeUp, aggUp := 0, 0, 0
		for _, e := range info.Edges[p] {
			for _, l := range g.LinksOf(e) {
				if !filter(l) {
					continue
				}
				if n, _ := g.Node(l.Other(e)); n.Kind == Host {
					hostLinks++
				} else {
					edgeUp++
				}
			}
		}
		for _, a := range info.Aggs[p] {
			for _, l := range g.LinksOf(a) {
				if !filter(l) {
					continue
				}
				if _, tier := kindOf(l.Other(a)); tier == TierSpine {
					aggUp++
				}
			}
		}
		if hostLinks == 0 {
			// Switch-only fabric: dimension by the configured host count.
			hostLinks = info.EdgesPerPod * info.Config.HostsPerEdge
		}
		r := float64(edgeUp) / float64(hostLinks)
		if ra := float64(aggUp) / float64(hostLinks); ra < r {
			r = ra
		}
		if min < 0 || r < min {
			min = r
		}
	}
	return min
}

// Validate checks the structural invariants of a generated fabric: layer
// degrees, pod-contiguous switch ids, and label consistency. It is meant
// for tests and for sanity-checking externally loaded fabrics.
func (info *FatTreeInfo) Validate(g *Graph) error {
	for p := range info.Pods {
		for _, e := range info.Edges[p] {
			n, ok := g.Node(e)
			if !ok || n.Tier != TierEdge || n.Pod != p {
				return fmt.Errorf("topology: FatTree validate: node %d is not edge of pod %d", e, p)
			}
			if got := len(g.SwitchNeighbors(e)); got != info.AggsPerPod {
				return fmt.Errorf("topology: FatTree validate: edge %s has %d agg links, want %d", n.Name, got, info.AggsPerPod)
			}
		}
		for _, a := range info.Aggs[p] {
			n, ok := g.Node(a)
			if !ok || n.Tier != TierAgg || n.Pod != p {
				return fmt.Errorf("topology: FatTree validate: node %d is not agg of pod %d", a, p)
			}
			if got := len(g.SwitchNeighbors(a)); got != info.EdgesPerPod+info.SpineLinks {
				return fmt.Errorf("topology: FatTree validate: agg %s has %d switch links, want %d",
					n.Name, got, info.EdgesPerPod+info.SpineLinks)
			}
		}
		for i := 1; i < len(info.Pods[p]); i++ {
			if info.Pods[p][i] != info.Pods[p][i-1]+1 {
				return fmt.Errorf("topology: FatTree validate: pod %d switch ids not contiguous", p)
			}
		}
	}
	for _, s := range info.Spines {
		n, ok := g.Node(s)
		if !ok || n.Tier != TierSpine || n.Pod != NoPod {
			return fmt.Errorf("topology: FatTree validate: node %d is not a spine", s)
		}
		if got := len(g.SwitchNeighbors(s)); got != info.Config.Pods {
			return fmt.Errorf("topology: FatTree validate: spine %s has %d pod links, want %d", n.Name, got, info.Config.Pods)
		}
	}
	if !g.Connected(nil) {
		return fmt.Errorf("topology: FatTree validate: fabric not connected")
	}
	return nil
}
