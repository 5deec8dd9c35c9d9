// Package reconfig implements AN1/AN2's distributed reconfiguration
// algorithm (paper §2): the protocol by which every switch learns the full
// network topology after a link or switch changes state.
//
// The algorithm has three phases:
//
//  1. Propagation: the initiator becomes the root of a spanning tree and
//     invites its neighbors; a node accepts the first invitation it
//     receives (becoming the inviter's child) and declines the rest,
//     re-inviting its own neighbors. The result is a propagation-order
//     spanning tree.
//  2. Collection: topology information flows up the tree; at the end the
//     root knows the complete topology.
//  3. Distribution: the complete topology flows down the tree.
//
// Overlapping reconfigurations are serialized by epoch tags: every message
// carries (epoch, initiator UID); a switch tracks the largest tag it has
// seen, joins only configurations with a strictly larger tag (aborting its
// current activity), and ignores the rest.
//
// The protocol logic lives in a pure, I/O-free machine (protocol.go) that
// is hardened for an unreliable control plane: receipt is idempotent, so
// duplicates and stale epochs are no-ops and retransmission is always
// safe. One runner drives it (eventloop.go): a single-threaded
// virtual-time event loop, exactly reproducible. Run and RunScoped give it
// a private loss-free channel, which measures fault-free convergence but
// is NOT a protocol assumption; RunOver threads every message through a
// caller's transport — package ctrlnet's fault injector (loss,
// duplication, reordering, delay, corruption, partition) or real sockets
// — and layers on retransmission with backoff plus a stall watchdog. The
// model checker (modelcheck_test.go) explores message interleavings
// exhaustively, including bounded loss and duplication.
//
// Latency is tracked with virtual timestamps: a message carries the
// sender's virtual clock plus link delay, and a receiver advances its
// clock to max(local, message) plus a processing delay — giving a
// deterministic estimate of real convergence time that corresponds to the
// paper's sub-200 ms pull-the-plug demo.
package reconfig

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/proto"
	"repro/internal/topology"
)

// Tag is an epoch tag: reconfiguration messages are ordered first by epoch
// number and then by the initiating switch's UID (paper §2).
type Tag struct {
	Epoch     uint64
	Initiator uint64 // switch UID
}

// Less reports whether t orders before u.
func (t Tag) Less(u Tag) bool {
	if t.Epoch != u.Epoch {
		return t.Epoch < u.Epoch
	}
	return t.Initiator < u.Initiator
}

// String renders the tag.
func (t Tag) String() string { return fmt.Sprintf("(%d,%d)", t.Epoch, t.Initiator) }

// LinkRec is one topology fact: a live link between two nodes, normalized
// so A < B.
type LinkRec struct {
	A, B topology.NodeID
}

func normRec(a, b topology.NodeID) LinkRec {
	if a > b {
		a, b = b, a
	}
	return LinkRec{A: a, B: b}
}

// View is what one switch knows at the end of a reconfiguration.
type View struct {
	// Tag is the configuration the switch completed.
	Tag Tag
	// Links is the full learned topology, sorted. It is shared and
	// read-only: the switches that learned one list from one run hold the
	// same backing array. Copy it before modifying it.
	Links []LinkRec
	// CompletedAtUS is the virtual time (µs) the switch finished the
	// distribution phase.
	CompletedAtUS int64
	// Parent is the switch's parent in the spanning tree (None for the
	// root).
	Parent topology.NodeID
	// Depth is the switch's depth in the spanning tree (0 for the root).
	Depth int
}

// Trigger is one reconfiguration initiation: switch Node detects a state
// change at virtual time AtUS.
type Trigger struct {
	Node topology.NodeID
	AtUS int64
}

// Config configures a reconfiguration run.
type Config struct {
	// Topology is the network; only its switch subgraph participates.
	Topology *topology.Graph
	// DeadLinks marks links that are down: excluded from adjacency and
	// from message delivery.
	DeadLinks map[topology.LinkID]bool
	// DeadNodes marks switches that are down: they run no process and
	// their links are dead.
	DeadNodes map[topology.NodeID]bool
	// ProcessDelayUS is the software cost of handling one message
	// (default 5 µs — line-card processor work).
	ProcessDelayUS int64
	// LinkDelayUS is the control-message latency of one hop (default
	// 10 µs — propagation plus serialization).
	LinkDelayUS int64
	// BaseEpoch initializes every switch's stored epoch. Real switches
	// remember the largest tag they have seen across reconfigurations;
	// callers that model a long-lived network pass the last winning
	// epoch here so new configurations supersede old ones.
	BaseEpoch uint64
}

// Result is the outcome of a reconfiguration run.
type Result struct {
	// Views maps each live switch to what it learned; switches in a
	// component with no trigger have no view.
	Views map[topology.NodeID]*View
	// Messages is the total number of protocol messages delivered.
	Messages int64
	// Bytes is the total wire bytes of control traffic (every message is
	// serialized through the proto codec).
	Bytes int64
	// MaxCompletionUS is the largest completion time across switches —
	// the network-wide convergence time.
	MaxCompletionUS int64
	// TreeDepth is the deepest spanning-tree depth among completed
	// switches of the winning configuration.
	TreeDepth int
}

// Epoch returns the winning configuration's epoch — the largest epoch any
// completed switch adopted (0 with no views). Control loops stamp this
// onto their trace events so offline analysis can correlate every action
// with the configuration it ran under.
func (r *Result) Epoch() uint64 {
	if r == nil {
		return 0
	}
	var max uint64
	for _, v := range r.Views {
		if v != nil && v.Tag.Epoch > max {
			max = v.Tag.Epoch
		}
	}
	return max
}

// message kinds.
type msgKind uint8

const (
	kindTrigger msgKind = iota + 1
	kindInvite
	kindAck
	kindReport
	kindDistribute
)

type message struct {
	kind   msgKind
	tag    Tag
	from   topology.NodeID
	vtime  int64
	accept bool      // for kindAck
	links  []LinkRec // for kindReport / kindDistribute
	depth  int       // for kindInvite / kindDistribute: sender's depth
}

// Runner executes reconfiguration runs over a fixed topology.
type Runner struct {
	cfg      Config
	switches []topology.NodeID
	// adj[node] = live switch neighbors.
	adj map[topology.NodeID][]topology.NodeID
	// own[node] = the node's own live adjacency facts (incl. host links).
	own map[topology.NodeID][]LinkRec
}

// ErrNoTopology reports a missing topology.
var ErrNoTopology = errors.New("reconfig: nil topology")

// New creates a Runner.
func New(cfg Config) (*Runner, error) {
	if cfg.Topology == nil {
		return nil, ErrNoTopology
	}
	if cfg.ProcessDelayUS == 0 {
		cfg.ProcessDelayUS = 5
	}
	if cfg.LinkDelayUS == 0 {
		cfg.LinkDelayUS = 10
	}
	r := &Runner{
		cfg: cfg,
		adj: make(map[topology.NodeID][]topology.NodeID),
		own: make(map[topology.NodeID][]LinkRec),
	}
	g := cfg.Topology
	for _, s := range g.Switches() {
		if cfg.DeadNodes[s] {
			continue
		}
		r.switches = append(r.switches, s)
		for _, id := range g.Ports(s) {
			if id < 0 || cfg.DeadLinks[id] {
				continue
			}
			other := g.LinkRef(id).Other(s)
			if cfg.DeadNodes[other] {
				continue
			}
			r.own[s] = append(r.own[s], normRec(s, other))
			if n, ok := g.Node(other); ok && n.Kind == topology.Switch {
				r.adj[s] = append(r.adj[s], other)
			}
		}
	}
	return r, nil
}

// LiveSwitches returns the switches that participate.
func (r *Runner) LiveSwitches() []topology.NodeID {
	return append([]topology.NodeID(nil), r.switches...)
}

type configState struct {
	tag       Tag
	parent    topology.NodeID
	depth     int
	pendAck   map[topology.NodeID]bool
	pendRep   map[topology.NodeID]bool
	children  []topology.NodeID
	collected map[LinkRec]bool
	done      bool
}

// encodeMessage maps the in-memory message onto the wire format.
func encodeMessage(m message) ([]byte, error) {
	pm := &proto.Message{
		Epoch:     m.tag.Epoch,
		Initiator: m.tag.Initiator,
		From:      int32(m.from),
		VTimeUS:   m.vtime,
		Accept:    m.accept,
		Depth:     int32(m.depth),
	}
	switch m.kind {
	case kindInvite:
		pm.Kind = proto.KindInvite
	case kindAck:
		pm.Kind = proto.KindAck
	case kindReport:
		pm.Kind = proto.KindReport
	case kindDistribute:
		pm.Kind = proto.KindDistribute
	default:
		return nil, fmt.Errorf("reconfig: kind %d is not a wire message", m.kind)
	}
	pm.Links = make([]proto.LinkRec, len(m.links))
	for i, rec := range m.links {
		pm.Links[i] = proto.LinkRec{A: int32(rec.A), B: int32(rec.B)}
	}
	return proto.Marshal(pm)
}

// linkCache is the last link section a run sent or received and its
// records. Bytes that passed the CRC are the bytes sent, and equal bytes
// decode to equal records, so a hit hands out the cached slice itself.
type linkCache struct {
	wire  proto.LinkSection
	links []LinkRec
}

// decodeMessage verifies a wire message and parses it back into the
// in-memory form, taking its links from c when the section is byte-equal to
// the cached one and decoding (and caching) them otherwise.
func decodeMessage(wire []byte, c *linkCache) (message, error) {
	pm, sec, err := proto.DecodeHeader(wire)
	if err != nil {
		return message{}, err
	}
	m := message{
		tag:    Tag{Epoch: pm.Epoch, Initiator: pm.Initiator},
		from:   topology.NodeID(pm.From),
		vtime:  pm.VTimeUS,
		accept: pm.Accept,
		depth:  int(pm.Depth),
	}
	switch pm.Kind {
	case proto.KindInvite:
		m.kind = kindInvite
	case proto.KindAck:
		m.kind = kindAck
	case proto.KindReport:
		m.kind = kindReport
	case proto.KindDistribute:
		m.kind = kindDistribute
	default:
		return message{}, fmt.Errorf("reconfig: wire kind %v", pm.Kind)
	}
	if sec.Len() > 0 {
		if !bytes.Equal(sec, c.wire) {
			links := make([]LinkRec, sec.Len())
			for i := range links {
				rec := sec.At(i)
				links[i] = LinkRec{A: topology.NodeID(rec.A), B: topology.NodeID(rec.B)}
			}
			*c = linkCache{wire: sec, links: links}
		}
		m.links = c.links
	}
	return m, nil
}

// recSet returns the set's records sorted by (A, B): the order of every
// View.Links.
func recSet(set map[LinkRec]bool) []LinkRec {
	out := make([]LinkRec, 0, len(set))
	for rec := range set {
		out = append(out, rec)
	}
	slices.SortFunc(out, func(x, y LinkRec) int {
		if c := cmp.Compare(x.A, y.A); c != 0 {
			return c
		}
		return cmp.Compare(x.B, y.B)
	})
	return out
}

// ErrBadTrigger reports a trigger at a dead or unknown switch.
var ErrBadTrigger = errors.New("reconfig: trigger at dead or unknown switch")

// Agreement checks that every switch in the same live component as a
// completed switch completed with the same tag and identical topology. It
// returns an error describing the first disagreement.
func (r *Runner) Agreement(res *Result) error {
	comp := r.components()
	for _, members := range comp {
		var ref *View
		var refNode topology.NodeID
		for _, s := range members {
			v := res.Views[s]
			if v == nil {
				continue
			}
			if ref == nil {
				ref, refNode = v, s
				continue
			}
			if v.Tag != ref.Tag {
				return fmt.Errorf("reconfig: switch %d finished %v but switch %d finished %v",
					s, v.Tag, refNode, ref.Tag)
			}
			if !equalRecs(v.Links, ref.Links) {
				return fmt.Errorf("reconfig: switch %d topology differs from switch %d", s, refNode)
			}
		}
		if ref != nil {
			// Every member of a triggered component must have completed.
			for _, s := range members {
				if res.Views[s] == nil {
					return fmt.Errorf("reconfig: switch %d never completed", s)
				}
			}
		}
	}
	return nil
}

// components returns the connected components of the live switch graph.
func (r *Runner) components() [][]topology.NodeID {
	seen := make(map[topology.NodeID]bool)
	var out [][]topology.NodeID
	for _, s := range r.switches {
		if seen[s] {
			continue
		}
		var comp []topology.NodeID
		stack := []topology.NodeID{s}
		seen[s] = true
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, n)
			for _, nb := range r.adj[n] {
				if !seen[nb] {
					seen[nb] = true
					stack = append(stack, nb)
				}
			}
		}
		out = append(out, comp)
	}
	return out
}

// equalRecs compares two link lists. Views that share a backing array —
// every view of one run's winning configuration — compare in O(1).
func equalRecs(a, b []LinkRec) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0] || slices.Equal(a, b))
}

// ExpectedLinks computes the ground-truth live topology the views should
// converge to (live links with at least one live endpoint pair).
func (r *Runner) ExpectedLinks() []LinkRec {
	set := make(map[LinkRec]bool)
	for _, s := range r.switches {
		for _, rec := range r.own[s] {
			set[rec] = true
		}
	}
	return recSet(set)
}
