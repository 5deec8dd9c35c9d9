// Package topology models AN2 network topologies: switches and hosts
// connected by full-duplex links in an arbitrary pattern (paper, §1).
//
// The package provides the graph type the rest of the system shares, plus
// generators for the topology families used in the experiments (the
// SRC-like redundant installation of Figure 1, trees, rings, tori, random
// regular graphs) and the structural analyses reconfiguration and routing
// rely on (connectivity, articulation points, BFS levels, diameter).
package topology

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// NodeID identifies a node (switch or host) in a topology. IDs are dense
// indexes assigned by the Graph.
type NodeID int

// None is the sentinel for "no node".
const None NodeID = -1

// Kind distinguishes switches from hosts. Reconfiguration is triggered only
// by inter-switch link state changes; host links never trigger it (paper §2).
type Kind uint8

const (
	// Switch is an AN2 switch with up to PortsPerSwitch ports.
	Switch Kind = iota + 1
	// Host is an end system attached through its controller.
	Host
)

// String returns "switch" or "host".
func (k Kind) String() string {
	switch k {
	case Switch:
		return "switch"
	case Host:
		return "host"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// PortsPerSwitch is the AN1/AN2 switch port count. Each AN1 switch has 12
// ports; the AN2 crossbar is 16×16 with one line card per port. We use 16.
// Datacenter fat-trees need other radixes; see AddSwitchPorts.
const PortsPerSwitch = 16

// Tier labels a switch's role in a hierarchical fabric (fat-tree). The
// zero value means the node has no fabric role (the classic AN2 mesh
// topologies are unlayered).
type Tier uint8

const (
	// TierNone marks a node outside any fabric hierarchy.
	TierNone Tier = iota
	// TierEdge is a leaf switch: hosts attach here.
	TierEdge
	// TierAgg is a pod aggregation switch: connects edges to spines.
	TierAgg
	// TierSpine is a top-of-fabric switch interconnecting pods.
	TierSpine
)

// String returns the lowercase tier name.
func (t Tier) String() string {
	switch t {
	case TierNone:
		return "none"
	case TierEdge:
		return "edge"
	case TierAgg:
		return "agg"
	case TierSpine:
		return "spine"
	default:
		return fmt.Sprintf("Tier(%d)", uint8(t))
	}
}

// NoPod is the Pod value of nodes outside any pod (spines, and every node
// of a non-fabric topology).
const NoPod = -1

// LinkID identifies a link within a Graph.
type LinkID int

// Link is a full-duplex connection between two node ports.
type Link struct {
	ID LinkID
	// A and B are the endpoints; APort and BPort the port numbers used on
	// each side.
	A, B         NodeID
	APort, BPort int
	// Latency is the propagation delay of the link in cell slots (≥1).
	Latency int64
}

// Other returns the endpoint opposite n, or None if n is not an endpoint.
func (l Link) Other(n NodeID) NodeID {
	switch n {
	case l.A:
		return l.B
	case l.B:
		return l.A
	default:
		return None
	}
}

// PortAt returns the port number link l occupies on node n (-1 if absent).
func (l Link) PortAt(n NodeID) int {
	switch n {
	case l.A:
		return l.APort
	case l.B:
		return l.BPort
	default:
		return -1
	}
}

// Node is a switch or host.
type Node struct {
	ID   NodeID
	Kind Kind
	Name string
	// UID is the node's unique hardware identifier, used for tie-breaking
	// in reconfiguration (epoch tags order by epoch, then initiator UID).
	UID uint64
	// Pod is the fabric pod this node belongs to, or NoPod. Set by the
	// fat-tree generator; plain topologies leave every node at NoPod.
	Pod int
	// Tier is the node's fabric role (edge/agg/spine), or TierNone.
	Tier Tier
	// ports[i] is the link attached to port i, or -1.
	ports []LinkID
}

// NumPorts returns the node's port count.
func (n Node) NumPorts() int { return len(n.ports) }

// Graph is a network topology. Build one with New and the Add* methods.
// Graph is not safe for concurrent mutation; the simulators treat it as
// immutable once built.
type Graph struct {
	nodes []Node
	links []Link
}

// New returns an empty topology.
func New() *Graph { return &Graph{} }

// AddSwitch adds a switch with PortsPerSwitch ports and returns its id.
func (g *Graph) AddSwitch(name string) NodeID {
	return g.addNode(Switch, name, PortsPerSwitch)
}

// AddSwitchPorts adds a switch with an explicit port count (radix). The
// classic AN2 topologies use the fixed 16-port crossbar via AddSwitch;
// fat-tree fabrics are parametric in the radix.
func (g *Graph) AddSwitchPorts(name string, ports int) (NodeID, error) {
	if ports < 1 {
		return None, fmt.Errorf("topology: switch %q needs ports >= 1, got %d", name, ports)
	}
	return g.addNode(Switch, name, ports), nil
}

// SetFabricRole labels a node with its pod and tier. The generator uses it
// while building; it is exported so loaders and tests can relabel.
func (g *Graph) SetFabricRole(n NodeID, pod int, tier Tier) error {
	if !g.valid(n) {
		return fmt.Errorf("%w: %d", ErrNoSuchNode, n)
	}
	g.nodes[n].Pod = pod
	g.nodes[n].Tier = tier
	return nil
}

// AddHost adds a host with two ports (AN1 hosts have links to two
// different switches for fault tolerance; only one is active at a time).
func (g *Graph) AddHost(name string) NodeID {
	return g.addNode(Host, name, 2)
}

func (g *Graph) addNode(kind Kind, name string, nports int) NodeID {
	id := NodeID(len(g.nodes))
	if name == "" {
		name = fmt.Sprintf("%s%d", kind, id)
	}
	ports := make([]LinkID, nports)
	for i := range ports {
		ports[i] = -1
	}
	g.nodes = append(g.nodes, Node{
		ID:    id,
		Kind:  kind,
		Name:  name,
		UID:   uint64(id) + 1,
		Pod:   NoPod,
		Tier:  TierNone,
		ports: ports,
	})
	return id
}

// Errors returned by Connect.
var (
	ErrNoSuchNode = errors.New("topology: no such node")
	ErrNoFreePort = errors.New("topology: no free port")
	ErrSelfLink   = errors.New("topology: self link")
	ErrDuplicate  = errors.New("topology: duplicate link between nodes")
	ErrBadLatency = errors.New("topology: link latency must be >= 1")
)

// Connect links nodes a and b using their first free ports, with the given
// propagation latency in slots. Parallel links between the same pair are
// rejected: the reconfiguration algorithm identifies links by their
// endpoints.
func (g *Graph) Connect(a, b NodeID, latency int64) (LinkID, error) {
	if !g.valid(a) || !g.valid(b) {
		return -1, fmt.Errorf("%w: %d-%d", ErrNoSuchNode, a, b)
	}
	if a == b {
		return -1, ErrSelfLink
	}
	if latency < 1 {
		return -1, fmt.Errorf("%w: %d", ErrBadLatency, latency)
	}
	if _, dup := g.LinkBetween(a, b); dup {
		return -1, fmt.Errorf("%w: %d-%d", ErrDuplicate, a, b)
	}
	pa := g.freePort(a)
	pb := g.freePort(b)
	if pa < 0 {
		return -1, fmt.Errorf("%w: node %s", ErrNoFreePort, g.nodes[a].Name)
	}
	if pb < 0 {
		return -1, fmt.Errorf("%w: node %s", ErrNoFreePort, g.nodes[b].Name)
	}
	id := LinkID(len(g.links))
	g.links = append(g.links, Link{ID: id, A: a, B: b, APort: pa, BPort: pb, Latency: latency})
	g.nodes[a].ports[pa] = id
	g.nodes[b].ports[pb] = id
	return id, nil
}

func (g *Graph) valid(n NodeID) bool { return n >= 0 && int(n) < len(g.nodes) }

func (g *Graph) freePort(n NodeID) int {
	for i, l := range g.nodes[n].ports {
		if l < 0 {
			return i
		}
	}
	return -1
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks returns the link count.
func (g *Graph) NumLinks() int { return len(g.links) }

// Node returns the node with the given id.
func (g *Graph) Node(id NodeID) (Node, bool) {
	if !g.valid(id) {
		return Node{}, false
	}
	return g.nodes[id], true
}

// Link returns the link with the given id.
func (g *Graph) Link(id LinkID) (Link, bool) {
	if id < 0 || int(id) >= len(g.links) {
		return Link{}, false
	}
	return g.links[id], true
}

// Nodes returns all nodes in id order (a copy).
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Links returns all links in id order (a copy).
func (g *Graph) Links() []Link {
	out := make([]Link, len(g.links))
	copy(out, g.links)
	return out
}

// Switches returns the ids of all switch nodes, ascending.
func (g *Graph) Switches() []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Kind == Switch {
			out = append(out, n.ID)
		}
	}
	return out
}

// Hosts returns the ids of all host nodes, ascending.
func (g *Graph) Hosts() []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Kind == Host {
			out = append(out, n.ID)
		}
	}
	return out
}

// Ports returns node n's port table: element p is the link on port p, or -1
// for a free port (nil for an unknown node). The slice is the graph's own —
// callers must not modify it. Together with LinkRef it is the adjacency walk
// that allocates nothing; LinksOf copies.
func (g *Graph) Ports(n NodeID) []LinkID {
	if !g.valid(n) {
		return nil
	}
	return g.nodes[n].ports
}

// LinkRef returns the graph's own record of link id, which must be an id
// the graph issued (an element >= 0 of Ports, or a Link's ID). Read-only,
// and valid only until the next Connect.
func (g *Graph) LinkRef(id LinkID) *Link { return &g.links[id] }

// LinksOf returns the links attached to node n, in port order (a copy).
func (g *Graph) LinksOf(n NodeID) []Link {
	var out []Link
	for _, lid := range g.Ports(n) {
		if lid >= 0 {
			out = append(out, g.links[lid])
		}
	}
	return out
}

// Neighbors returns the node ids adjacent to n, in port order.
func (g *Graph) Neighbors(n NodeID) []NodeID {
	links := g.LinksOf(n)
	out := make([]NodeID, 0, len(links))
	for _, l := range links {
		out = append(out, l.Other(n))
	}
	return out
}

// SwitchNeighbors returns adjacent switches only (reconfiguration runs over
// the switch subgraph).
func (g *Graph) SwitchNeighbors(n NodeID) []NodeID {
	var out []NodeID
	for _, nb := range g.Neighbors(n) {
		if g.nodes[nb].Kind == Switch {
			out = append(out, nb)
		}
	}
	return out
}

// LinkBetween returns the link joining a and b, if any.
func (g *Graph) LinkBetween(a, b NodeID) (Link, bool) {
	for _, lid := range g.Ports(a) {
		if lid >= 0 && g.links[lid].Other(a) == b {
			return g.links[lid], true
		}
	}
	return Link{}, false
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		nodes: make([]Node, len(g.nodes)),
		links: make([]Link, len(g.links)),
	}
	copy(c.links, g.links)
	for i, n := range g.nodes {
		n.ports = append([]LinkID(nil), n.ports...)
		c.nodes[i] = n
	}
	return c
}

// Subgraph predicates: a LinkFilter reports whether a link is usable.
// Analyses take a filter so they can run on the surviving topology after
// fault injection.
type LinkFilter func(Link) bool

// AllLinks is the filter accepting every link.
func AllLinks(Link) bool { return true }

// SwitchOnly accepts links whose endpoints are both switches.
func (g *Graph) SwitchOnly(l Link) bool {
	return g.nodes[l.A].Kind == Switch && g.nodes[l.B].Kind == Switch
}

// BFS computes breadth-first levels from root over links accepted by
// filter, visiting only nodes accepted by visit (nil = all). It returns the
// level of each node (-1 if unreachable) and the maximum level reached.
func (g *Graph) BFS(root NodeID, filter LinkFilter, visit func(NodeID) bool) (level []int, maxLevel int) {
	if filter == nil {
		filter = AllLinks
	}
	level = make([]int, len(g.nodes))
	for i := range level {
		level[i] = -1
	}
	if !g.valid(root) || (visit != nil && !visit(root)) {
		return level, -1
	}
	level[root] = 0
	queue := []NodeID{root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, lid := range g.nodes[n].ports {
			if lid < 0 || !filter(g.links[lid]) {
				continue
			}
			m := g.links[lid].Other(n)
			if visit != nil && !visit(m) {
				continue
			}
			if level[m] < 0 {
				level[m] = level[n] + 1
				if level[m] > maxLevel {
					maxLevel = level[m]
				}
				queue = append(queue, m)
			}
		}
	}
	return level, maxLevel
}

// Connected reports whether all switches are mutually reachable over
// switch-switch links accepted by filter. A network partition means
// automatic reconfiguration cannot restore full service (paper §2).
func (g *Graph) Connected(filter LinkFilter) bool {
	switches := g.Switches()
	if len(switches) == 0 {
		return true
	}
	f := func(l Link) bool { return g.SwitchOnly(l) && (filter == nil || filter(l)) }
	level, _ := g.BFS(switches[0], f, func(n NodeID) bool { return g.nodes[n].Kind == Switch })
	for _, s := range switches {
		if level[s] < 0 {
			return false
		}
	}
	return true
}

// Diameter returns the largest switch-to-switch hop distance, or -1 if the
// switch subgraph is disconnected or empty.
func (g *Graph) Diameter() int {
	switches := g.Switches()
	if len(switches) == 0 {
		return -1
	}
	d := 0
	for _, s := range switches {
		level, maxLevel := g.BFS(s, g.SwitchOnly, func(n NodeID) bool { return g.nodes[n].Kind == Switch })
		for _, t := range switches {
			if level[t] < 0 {
				return -1
			}
		}
		if maxLevel > d {
			d = maxLevel
		}
	}
	return d
}

// ArticulationSwitches returns the switches whose failure would partition
// the remaining switches (cut vertices of the switch subgraph). A
// fault-tolerant installation has none (Figure 1's redundant connections).
func (g *Graph) ArticulationSwitches() []NodeID {
	switches := g.Switches()
	var cuts []NodeID
	for _, victim := range switches {
		if len(switches) <= 2 {
			break
		}
		// BFS over the remaining switches from any survivor.
		var root NodeID = None
		for _, s := range switches {
			if s != victim {
				root = s
				break
			}
		}
		filter := func(l Link) bool {
			return g.SwitchOnly(l) && l.A != victim && l.B != victim
		}
		level, _ := g.BFS(root, filter, func(n NodeID) bool {
			return g.nodes[n].Kind == Switch && n != victim
		})
		for _, s := range switches {
			if s != victim && level[s] < 0 {
				cuts = append(cuts, victim)
				break
			}
		}
	}
	return cuts
}

// podPalette colors pods in DOT output; pod p gets podPalette[p % len].
// Spines (NoPod, TierSpine) render in grey.
var podPalette = []string{
	"#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f",
	"#cab2d6", "#ffff99", "#1f78b4", "#33a02c",
	"#e31a1c", "#ff7f00", "#6a3d9a", "#b15928",
}

// DOT renders the topology in Graphviz DOT format for inspection. Nodes
// labeled with a fabric pod are filled with a per-pod color so fat-tree
// pods can be eyeballed; spines render grey.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("graph an2 {\n")
	for _, n := range g.nodes {
		shape := "box"
		if n.Kind == Host {
			shape = "ellipse"
		}
		extra := ""
		switch {
		case n.Pod >= 0:
			extra = fmt.Sprintf(" style=filled fillcolor=%q", podPalette[n.Pod%len(podPalette)])
		case n.Tier == TierSpine:
			extra = " style=filled fillcolor=\"#cccccc\""
		}
		fmt.Fprintf(&b, "  n%d [label=%q shape=%s%s];\n", n.ID, n.Name, shape, extra)
	}
	for _, l := range g.links {
		fmt.Fprintf(&b, "  n%d -- n%d [label=\"%d\"];\n", l.A, l.B, l.Latency)
	}
	b.WriteString("}\n")
	return b.String()
}

// jsonGraph is the serialized form.
type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
	Links []jsonLink `json:"links"`
}

type jsonNode struct {
	Kind string `json:"kind"`
	Name string `json:"name"`
	// Fabric labeling; omitted for plain topologies so older files and
	// older readers stay compatible.
	Pod   *int   `json:"pod,omitempty"`
	Tier  string `json:"tier,omitempty"`
	Ports int    `json:"ports,omitempty"`
}

type jsonLink struct {
	A       int   `json:"a"`
	B       int   `json:"b"`
	Latency int64 `json:"latency"`
}

// MarshalJSON encodes the topology.
func (g *Graph) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{}
	for _, n := range g.nodes {
		jn := jsonNode{Kind: n.Kind.String(), Name: n.Name}
		if n.Pod != NoPod {
			pod := n.Pod
			jn.Pod = &pod
		}
		if n.Tier != TierNone {
			jn.Tier = n.Tier.String()
		}
		if n.Kind == Switch && len(n.ports) != PortsPerSwitch {
			jn.Ports = len(n.ports)
		}
		jg.Nodes = append(jg.Nodes, jn)
	}
	for _, l := range g.links {
		jg.Links = append(jg.Links, jsonLink{A: int(l.A), B: int(l.B), Latency: l.Latency})
	}
	return json.Marshal(jg)
}

// UnmarshalJSON decodes a topology serialized by MarshalJSON.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return fmt.Errorf("topology: decode: %w", err)
	}
	*g = Graph{}
	for _, n := range jg.Nodes {
		var id NodeID
		switch n.Kind {
		case "switch":
			if n.Ports > 0 {
				var err error
				if id, err = g.AddSwitchPorts(n.Name, n.Ports); err != nil {
					return err
				}
			} else {
				id = g.AddSwitch(n.Name)
			}
		case "host":
			id = g.AddHost(n.Name)
		default:
			return fmt.Errorf("topology: unknown node kind %q", n.Kind)
		}
		if n.Pod != nil {
			g.nodes[id].Pod = *n.Pod
		}
		switch n.Tier {
		case "":
		case "edge":
			g.nodes[id].Tier = TierEdge
		case "agg":
			g.nodes[id].Tier = TierAgg
		case "spine":
			g.nodes[id].Tier = TierSpine
		default:
			return fmt.Errorf("topology: unknown tier %q", n.Tier)
		}
	}
	for _, l := range jg.Links {
		if _, err := g.Connect(NodeID(l.A), NodeID(l.B), l.Latency); err != nil {
			return fmt.Errorf("topology: decode link %d-%d: %w", l.A, l.B, err)
		}
	}
	return nil
}

// Degrees returns a sorted slice of switch degrees (diagnostic).
func (g *Graph) Degrees() []int {
	var out []int
	for _, s := range g.Switches() {
		out = append(out, len(g.SwitchNeighbors(s)))
	}
	sort.Ints(out)
	return out
}

// randPerm is a tiny helper for generators.
func randPerm(rng *rand.Rand, n int) []int { return rng.Perm(n) }
