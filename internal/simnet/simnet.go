// Package simnet is the network-level data-plane simulator: a topology of
// AN2 switches (package switchnode) joined by links with propagation
// latency, with hosts injecting and absorbing cells over virtual circuits.
//
// Time is globally slotted; one Step advances the network by one cell
// slot and costs what moved in it, not what exists: quiescent switches
// sleep, are skipped entirely, and have their slot clocks settled in batch
// when a cell, reservation, or fault next touches them (wakeset.go); cells
// and credits on links are filed by arrival slot, so a slot visits only
// those that land in it (calendar.go); only circuits with cells queued at
// their source are asked to inject (the ready list); and a cell inside the
// network finds its circuit, its hop and its destination's state by index —
// it carries its circuit's table slot and its position on the path — never
// by hashing its VCI. Per-circuit state lives in the Circuit record and is
// freed when the circuit closes.
// Guaranteed circuits are paced at the source to their reserved
// rate (the paper's rate-matching, §5) and ride the frame schedules
// installed at each switch; best-effort circuits are windowed at the
// ingress (credit flow control against the first switch — the full
// credit protocol between switches is modeled in package flowcontrol) and
// buffered per circuit inside the network, so no cell is ever dropped in
// transit. Fault injection (killing links and switches) drops exactly the
// cells in flight through the failed component, as in AN2.
//
// To model the asynchrony of real AN2 (no global clock), each switch's
// frame position can be given a phase offset, which is the dominant effect
// of unsynchronized switches on guaranteed traffic buffering (experiment
// E8).
package simnet

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/cell"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/switchnode"
	"repro/internal/topology"
)

// Config configures a Network.
type Config struct {
	// Topology is the network graph (switches and hosts).
	Topology *topology.Graph
	// Switch is the per-switch template: discipline, PIM iterations,
	// frame size, and seed (each switch derives its own seed from it). Its
	// N must be zero: a switch's crossbar has as many ports as its node in
	// Topology.
	Switch switchnode.Config
	// IngressWindow is the best-effort credit window per circuit at the
	// ingress host (0 = unbounded: the host dumps as fast as the link
	// accepts).
	IngressWindow int
	// FramePhase gives each switch a frame phase offset in slots,
	// modeling unsynchronized switch clocks. Nil means all zero
	// (synchronous network).
	FramePhase map[topology.NodeID]int64
	// Tracer, if set, receives an event for every observable network
	// action (injections, deliveries, drops, circuit and fault events).
	Tracer Tracer
	// TraceHops additionally emits a hop event for every switch departure
	// (Node = the switch, Link = the outgoing link), letting offline
	// analysis (cmd/an2trace) decompose per-cell latency into transit,
	// queueing and head-of-line waiting. Off by default: hop events
	// dominate trace volume on long runs.
	TraceHops bool
	// Obs, if set, receives live instrument updates: cell counters,
	// per-class latency histograms, per-switch occupancy and per-VC
	// credit-window time series, matching-iteration stats. The registry is
	// shared with the switches (each gets its build-order index as its
	// writer shard) and with any control loops watching the same network.
	// Nil disables all of it at the cost of one pointer check per site.
	Obs *obs.Registry
}

// Circuit is an established virtual circuit: its route, its source-side
// queue and window, and what its destination host knows about it. The
// record lives exactly as long as the circuit is open; CloseCircuit frees
// all of it.
type Circuit struct {
	VC    cell.VCI
	Class cell.Class
	// Path is host, switch..., host.
	Path []topology.NodeID
	// CellsPerFrame is the reservation for guaranteed circuits.
	CellsPerFrame int

	// hops[k] is the circuit at its k-th switch, Path[k+1].
	hops []hop
	// slot is the circuit's index in Network.slots, the handle each of its
	// cells carries (cell.Stamp.Circ) so that no per-cell step looks the
	// VCI up. Slots are recycled at close — VCIs are not dense (core
	// allocates them monotonically) — so a holder of a slot index confirms
	// it with the VCI before trusting it.
	slot int32
	// ready marks membership of Network.ready.
	ready bool

	// ingress credit window state (best-effort).
	window int
	inUse  int
	// pending holds the cells queued at the source host; pendHead is the
	// index of the oldest, so injection pops without reslicing away
	// capacity.
	pending  []cell.Cell
	pendHead int

	// source pacing state (guaranteed).
	nextSeq uint64

	// src is the sending host; firstLink and firstLatency describe its link
	// to the first switch. Resolved at open/reroute so injection and
	// first-hop credit return touch no graph lookup.
	src          *host
	firstLink    topology.LinkID
	firstLatency int64

	// Destination side: the receiving host, its latency histogram for this
	// circuit's class, and the per-circuit receive state — cells delivered,
	// the last sequence number seen, the packet being reassembled and the
	// injection slot of its first cell.
	dst       *host
	lat       *metrics.Histogram
	delivered int64
	gotAny    bool
	lastSeq   uint64
	reasm     cell.Reassembler
	pktStart  int64

	// obsCredit is the circuit's credit-window time series (lazily
	// registered; nil without Config.Obs or for unwindowed circuits).
	obsCredit *obs.Series
}

// hop is the circuit's port usage at one switch.
type hop struct {
	// node is the switch and idx its switchOrder position.
	node    topology.NodeID
	idx     int
	inPort  int
	outPort int
	// next is the node the circuit proceeds to after this switch, and
	// nextIdx its switchOrder position (-1 when next is the destination
	// host).
	next    topology.NodeID
	nextIdx int
	// linkID and linkLatency describe the outgoing link.
	linkID      topology.LinkID
	linkLatency int64
}

// HostStats aggregates what a host observed.
type HostStats struct {
	CellsSent     int64
	CellsReceived int64
	OutOfOrder    int64
	// LatencyByClass is the per-cell network latency distribution.
	LatencyByClass map[cell.Class]*metrics.Histogram
	// PacketLatency is the packet-level latency distribution: from the
	// injection of a packet's first cell to the reassembly of its last.
	PacketLatency metrics.Histogram
	// PacketsReassembled counts complete, CRC-valid packets.
	PacketsReassembled int64
	// PacketsCorrupt counts reassemblies that failed the length or CRC
	// check (must stay 0 in a healthy network).
	PacketsCorrupt int64
}

// host is the endpoint state that is not per circuit (that lives in
// Circuit): counters and the reassembled packets awaiting Packets.
type host struct {
	id    topology.NodeID
	stats HostStats
	// filling collects the packets reassembled since the last Packets
	// call; polled is the batch that call returned. Packets hands filling
	// out and swaps the two, so a host polled regularly reuses the same
	// two batches and allocates nothing.
	filling, polled batch
}

// batch is a run of reassembled packets: their bytes back to back in buf,
// packet i ending at ends[i]. views is filled only when Packets hands the
// batch out, once buf has stopped growing, so no view refers to an array
// buf has outgrown.
type batch struct {
	buf   []byte
	ends  []int
	views [][]byte
}

// keep copies a reassembled packet out of the reassembler's buffer (which
// the circuit's next cell reuses) into the filling batch.
func (h *host) keep(pkt []byte) {
	h.filling.buf = append(h.filling.buf, pkt...)
	h.filling.ends = append(h.filling.ends, len(h.filling.buf))
}

// dwarfs reports whether b's storage is much larger than out's contents —
// a batch left over from an unpolled stretch, which reuse would pin.
func (b *batch) dwarfs(out *batch) bool {
	return cap(b.buf) > 4*len(out.buf)+4096 || cap(b.ends) > 4*len(out.ends)+512
}

// flight is a cell in transit on a link.
type flight struct {
	arrive int64
	// seq numbers every send network-wide. Slots never need it — a calendar
	// bucket is in send order already — but a fault or reroute that takes
	// cells out of several buckets traces its casualties in send order.
	seq uint64
	// c carries its circuit's slot and, in Stamp.Hop, the position on the
	// circuit's path of the switch it lands at (len(hops) for the
	// destination host).
	c cell.Cell
	// to is the receiving node and toIdx its switchOrder position (-1 for
	// a host).
	to    topology.NodeID
	toIdx int
	link  topology.LinkID
}

func (f flight) due() int64 { return f.arrive }

// ingressCredit is a window token returning to the source host.
type ingressCredit struct {
	arrive int64
	vc     cell.VCI
	circ   int32 // the circuit's slot
}

func (cr ingressCredit) due() int64 { return cr.arrive }

// Network is the simulated network.
type Network struct {
	cfg      Config
	g        *topology.Graph
	switches map[topology.NodeID]*switchnode.Switch
	// switchOrder is the ascending-NodeID iteration order, cached at build
	// time so every per-switch loop (stepping, occupancy, backlog) is
	// deterministic instead of following map iteration order.
	switchOrder []topology.NodeID
	// phase is each switch's frame phase offset, by switchOrder position.
	phase []int64
	hosts map[topology.NodeID]*host
	// circOrder holds the open circuits sorted by VCI: the index a caller's
	// VCI is looked up in. slots is the table cells find their circuit in
	// (Circuit.slot; nil entries are free and listed in freeSlots, reused
	// last-freed first).
	circOrder vcList
	slots     []*Circuit
	freeSlots []int32
	// ready holds, in ascending VCI, exactly the circuits with cells queued
	// at their source — the only ones a slot's injection phase visits, in
	// the order that makes the interleaving of cells sharing a link
	// reproducible run to run. A circuit joins in Send/SendPacket and
	// leaves in the slot its queue empties.
	ready vcList
	// flights and credits are what is on the links, filed by arrival slot
	// (see calendar.go); sendSeq numbers the flights.
	flights calendar[flight]
	credits calendar[ingressCredit]
	sendSeq uint64
	slot    int64

	// deadLinks and deadNodes mark failed elements, indexed by the dense
	// LinkID and NodeID.
	deadLinks []bool
	deadNodes []bool

	// lastLinkChange / lastNodeChange record the slot of each element's
	// most recent kill or restore — the hardware-truth timestamps the
	// recovery loop uses to measure detection lag.
	lastLinkChange map[topology.LinkID]int64
	lastNodeChange map[topology.NodeID]int64

	// linkCells counts cells carried per link (utilization accounting),
	// indexed by the dense LinkID.
	linkCells []int64

	// stepDeps collects each stepped switch's departures by switchOrder
	// position so they can be applied in canonical order once every awake
	// switch has stepped.
	stepDeps [][]switchnode.Departure
	// orderIdx maps NodeID to switchOrder position; switchByIdx is the
	// positional mirror of the switches map.
	orderIdx    map[topology.NodeID]int
	switchByIdx []*switchnode.Switch

	// Wake-set engine state (see wakeset.go). swState tracks
	// awake/asleep/dead per switchOrder position; sleepSince is the first
	// skipped slot of a sleeping switch; active is the sorted list of awake
	// positions; asleep and sleepSum (the count of sleeping switches and
	// the sum of their sleepSince) make the idle slots not yet credited an
	// O(1) read.
	swState    []uint8
	sleepSince []int64
	active     []int
	asleep     int64
	sleepSum   int64

	stats NetStats

	// Observability handles, all nil when Config.Obs is nil (their methods
	// are then single-branch no-ops). Counter updates for drops are synced
	// as deltas from stats once per slot; injections and deliveries update
	// at the event site. Series sampling happens in observeSlot, guarded by
	// the registry so the disabled path never enters the loop.
	obsInjected  *obs.Counter
	obsDelivered *obs.Counter
	obsDropF     *obs.Counter
	obsDropR     *obs.Counter
	obsLatBE     *obs.Histogram
	obsLatG      *obs.Histogram
	obsSlot      *obs.Gauge
	obsInFlight  *obs.Gauge
	obsOcc       []*obs.Series // by switchOrder index
	obsMatch     *obs.Series
	obsPrevDropF int64
	obsPrevDropR int64
	obsPrevIters int64
}

// NetStats aggregates network-wide counters.
type NetStats struct {
	DeliveredCells  int64
	DroppedInFlight int64 // cells lost to link/switch failures
	DroppedReroute  int64 // cells discarded when a circuit was rerouted
	Slots           int64
	// IdleStepsSkipped counts the switch-slots a live switch spent
	// quiescent (empty buffers and frame) and so never ran a full Step:
	// the slots it slept through plus the one in which it dozed off.
	IdleStepsSkipped int64
}

// Errors.
var (
	ErrNoTopology  = errors.New("simnet: nil topology")
	ErrBadPath     = errors.New("simnet: invalid circuit path")
	ErrDupCircuit  = errors.New("simnet: circuit already open")
	ErrNoCircuit   = errors.New("simnet: no such circuit")
	ErrNotHost     = errors.New("simnet: endpoint is not a host")
	ErrDeadElement = errors.New("simnet: path uses a dead link or switch")
)

// New creates a network. Every switch in the topology gets a switchnode
// instance as wide as the switch's port table (not its live degree: a link
// may be connected after New); every host an endpoint.
func New(cfg Config) (*Network, error) {
	if cfg.Topology == nil {
		return nil, ErrNoTopology
	}
	if cfg.Switch.N != 0 {
		return nil, fmt.Errorf("simnet: Switch.N is %d; a crossbar's width is its topology node's port count", cfg.Switch.N)
	}
	n := &Network{
		cfg:            cfg,
		g:              cfg.Topology,
		switches:       make(map[topology.NodeID]*switchnode.Switch),
		switchOrder:    cfg.Topology.Switches(), // ascending NodeID
		hosts:          make(map[topology.NodeID]*host),
		lastLinkChange: make(map[topology.LinkID]int64),
		lastNodeChange: make(map[topology.NodeID]int64),
	}
	n.sizeLinks()
	n.stepDeps = make([][]switchnode.Departure, len(n.switchOrder))
	n.orderIdx = make(map[topology.NodeID]int, len(n.switchOrder))
	for idx, s := range n.switchOrder {
		n.orderIdx[s] = idx
	}
	n.switchByIdx = make([]*switchnode.Switch, len(n.switchOrder))
	n.phase = make([]int64, len(n.switchOrder))
	for idx, s := range n.switchOrder {
		sc := cfg.Switch
		sc.N = len(cfg.Topology.Ports(s))
		sc.Seed = cfg.Switch.Seed + int64(s)*7919
		sc.Obs = cfg.Obs
		sc.Shard = idx
		sw, err := switchnode.New(sc)
		if err != nil {
			return nil, fmt.Errorf("simnet: switch %d: %w", s, err)
		}
		n.switches[s] = sw
		n.switchByIdx[idx] = sw
		// Pre-step the empty switch so its frame position is offset from
		// the global slot counter — the unsynchronized-clock model.
		n.phase[idx] = cfg.FramePhase[s]
		for k := int64(0); k < n.phase[idx]; k++ {
			sw.Step()
		}
	}
	for _, h := range cfg.Topology.Hosts() {
		n.hosts[h] = &host{
			id: h,
			stats: HostStats{
				LatencyByClass: map[cell.Class]*metrics.Histogram{
					cell.BestEffort: {},
					cell.Guaranteed: {},
				},
			},
		}
	}
	if reg := cfg.Obs; reg != nil {
		n.obsInjected = reg.Counter("net_cells_total", "kind", "inject")
		n.obsDelivered = reg.Counter("net_cells_total", "kind", "deliver")
		n.obsDropF = reg.Counter("net_cells_total", "kind", "drop-fault")
		n.obsDropR = reg.Counter("net_cells_total", "kind", "drop-route")
		n.obsLatBE = reg.Histogram("net_latency_slots", "class", "best-effort")
		n.obsLatG = reg.Histogram("net_latency_slots", "class", "guaranteed")
		n.obsSlot = reg.Gauge("net_slot")
		n.obsInFlight = reg.Gauge("net_inflight_cells")
		n.obsOcc = make([]*obs.Series, len(n.switchOrder))
		for idx, s := range n.switchOrder {
			n.obsOcc[idx] = reg.Series("switch_occupancy_cells", 0,
				"node", fmt.Sprint(int64(s)))
		}
		n.obsMatch = reg.Series("net_match_iterations_per_slot", 0)
	}
	n.initWake()
	return n, nil
}

// sizeLinks sizes what is indexed by the dense link and node ids — the
// fault marks, the per-link counters — and the calendars' ring, one bucket
// per slot of the longest link plus one, to the topology as it stands. New
// calls it; resolve and knownLink call it again if links were added to the
// graph since.
func (n *Network) sizeLinks() {
	links := n.g.Links()
	n.linkCells = append(n.linkCells, make([]int64, len(links)-len(n.linkCells))...)
	n.deadLinks = append(n.deadLinks, make([]bool, len(links)-len(n.deadLinks))...)
	n.deadNodes = append(n.deadNodes, make([]bool, n.g.NumNodes()-len(n.deadNodes))...)
	var maxLatency int64
	for _, l := range links {
		maxLatency = max(maxLatency, l.Latency)
	}
	n.flights.grow(maxLatency)
	n.credits.grow(maxLatency)
}

// send puts the cell *cl on a link, to land at slot arrive; the caller
// finishes the flight's copy of the cell (its stamp).
func (n *Network) send(arrive int64, cl *cell.Cell, to topology.NodeID, toIdx int, link topology.LinkID) *flight {
	f := n.flights.file(arrive)
	f.arrive, f.seq, f.to, f.toIdx, f.link = arrive, n.sendSeq, to, toIdx, link
	f.c = *cl
	n.sendSeq++
	n.linkCells[link]++
	return f
}

// dropFlights takes the in-flight cells drop selects off the links, counts
// each in *counter and traces it as kind, in send order.
func (n *Network) dropFlights(drop func(*flight) bool, counter *int64, kind string) {
	gone := n.flights.remove(drop)
	sort.Slice(gone, func(i, j int) bool { return gone[i].seq < gone[j].seq })
	for _, f := range gone {
		*counter++
		n.trace(kind, f.c.VC, f.to, f.link, f.c.Stamp.Seq)
	}
}

// Slot returns the current slot.
func (n *Network) Slot() int64 { return n.slot }

// Stats returns network counters. Idle slots accrued by still-sleeping
// switches are folded in non-mutatingly, so IdleStepsSkipped is exact at
// any observation point, not only after a wake.
func (n *Network) Stats() NetStats {
	s := n.stats
	s.IdleStepsSkipped += n.pendingIdle()
	return s
}

// Switch exposes a switch (for reservations inspection in tests, and for
// control planes installing frames). The switch is woken first, so its
// slot clock is settled and any mutation the caller performs (SetFrame,
// Reserve) happens on an awake switch — the asleep ⇒ quiescent invariant
// survives external access.
func (n *Network) Switch(id topology.NodeID) (*switchnode.Switch, bool) {
	sw, ok := n.switches[id]
	if ok && !n.deadNodes[id] {
		n.wakeNode(id)
	}
	return sw, ok
}

// HostStats returns a host's observation record.
func (n *Network) HostStats(id topology.NodeID) (*HostStats, bool) {
	h, ok := n.hosts[id]
	if !ok {
		return nil, false
	}
	return &h.stats, true
}

// Packets returns and clears the packets reassembled at a host, in
// reassembly order. The batch, its packets included, stays valid until the
// next Packets call for the same host, which reuses its storage: a caller
// that keeps a packet longer copies it.
func (n *Network) Packets(id topology.NodeID) [][]byte {
	h, ok := n.hosts[id]
	if !ok || len(h.filling.ends) == 0 {
		return nil
	}
	out := &h.filling
	start := 0
	for _, end := range out.ends {
		out.views = append(out.views, out.buf[start:end:end])
		start = end
	}
	// The batch returned last time is reclaimed to fill next, unless an
	// unpolled stretch left it far larger than a batch now is: then it is
	// dropped so that the memory goes back.
	next := h.polled
	if next.dwarfs(out) {
		next = batch{}
	}
	clear(next.views)
	next.buf, next.ends, next.views = next.buf[:0], next.ends[:0], next.views[:0]
	h.polled, h.filling = *out, next
	return h.polled.views
}

// vcList is a list of circuits in ascending VCI. Each entry carries its VCI
// beside the pointer, so a search reads one dense array instead of a circuit
// per probe.
type vcList []vcEntry

type vcEntry struct {
	vc cell.VCI
	c  *Circuit
}

// search finds vc: its position, or where it would be inserted. VCIs are
// usually handed out in increasing order, which puts an entry of a list with
// no gaps at its distance from the first; that position is tried before the
// binary search.
func (l vcList) search(vc cell.VCI) (int, bool) {
	if len(l) > 0 {
		if d := int(vc) - int(l[0].vc); d >= 0 && d < len(l) && l[d].vc == vc {
			return d, true
		}
	}
	lo, hi := 0, len(l)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); l[mid].vc < vc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(l) && l[lo].vc == vc
}

// insert adds c at position at, which search returned for c.VC.
func (l *vcList) insert(at int, c *Circuit) { *l = slices.Insert(*l, at, vcEntry{c.VC, c}) }

// remove deletes the entry at position at.
func (l *vcList) remove(at int) { *l = slices.Delete(*l, at, at+1) }

// find returns the open circuit with the given VCI.
func (n *Network) find(vc cell.VCI) (*Circuit, error) {
	i, ok := n.circOrder.search(vc)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoCircuit, vc)
	}
	return n.circOrder[i].c, nil
}

// circuitOf returns the open circuit a cell inside the network belongs to:
// the one in the slot the cell carries, if that is still the cell's VC. Nil
// means the circuit was closed (and its slot perhaps reused) since the cell
// was injected.
func (n *Network) circuitOf(cl *cell.Cell) *Circuit {
	if i := uint(cl.Stamp.Circ); i < uint(len(n.slots)) {
		if c := n.slots[i]; c != nil && c.VC == cl.VC {
			return c
		}
	}
	return nil
}

// route is a resolved circuit path: the port usage at each switch, in path
// order, and the host link the source injects on.
type route struct {
	hops  []hop
	first topology.Link
}

// resolve checks the path alternates host, switches..., host along live
// links, and resolves the per-switch ports.
func (n *Network) resolve(path []topology.NodeID) (route, error) {
	if len(path) < 3 {
		return route{}, fmt.Errorf("%w: need host-switch...-host, got %d nodes", ErrBadPath, len(path))
	}
	if n.g.NumLinks() != len(n.linkCells) {
		n.sizeLinks()
	}
	first, last := path[0], path[len(path)-1]
	if _, ok := n.hosts[first]; !ok {
		return route{}, fmt.Errorf("%w: %d", ErrNotHost, first)
	}
	if _, ok := n.hosts[last]; !ok {
		return route{}, fmt.Errorf("%w: %d", ErrNotHost, last)
	}
	r := route{hops: make([]hop, 0, len(path)-2)}
	for i := 1; i < len(path)-1; i++ {
		s := path[i]
		if _, ok := n.switches[s]; !ok {
			return route{}, fmt.Errorf("%w: %d is not a switch", ErrBadPath, s)
		}
		if n.deadNodes[s] {
			return route{}, fmt.Errorf("%w: switch %d", ErrDeadElement, s)
		}
		inLink, ok := n.g.LinkBetween(path[i-1], s)
		if !ok {
			return route{}, fmt.Errorf("%w: no link %d-%d", ErrBadPath, path[i-1], s)
		}
		outLink, ok := n.g.LinkBetween(s, path[i+1])
		if !ok {
			return route{}, fmt.Errorf("%w: no link %d-%d", ErrBadPath, s, path[i+1])
		}
		if n.deadLinks[inLink.ID] || n.deadLinks[outLink.ID] {
			return route{}, fmt.Errorf("%w: link on path", ErrDeadElement)
		}
		if i == 1 {
			r.first = inLink
		}
		nextIdx, isSwitch := n.orderIdx[path[i+1]]
		if !isSwitch {
			nextIdx = -1
		}
		r.hops = append(r.hops, hop{
			node:        s,
			idx:         n.orderIdx[s],
			inPort:      inLink.PortAt(s),
			outPort:     outLink.PortAt(s),
			next:        path[i+1],
			nextIdx:     nextIdx,
			linkID:      outLink.ID,
			linkLatency: outLink.Latency,
		})
	}
	return r, nil
}

// reserve installs k cells/frame at every hop in path order. A refused
// admission unwinds the hops already reserved and reports the refusing
// switch.
func (n *Network) reserve(hops []hop, k int) error {
	for i, h := range hops {
		// Reserving breaks quiescence; sleeping switches must settle
		// their clocks before the frame changes.
		n.wakeIdx(h.idx)
		if err := n.switchByIdx[h.idx].Reserve(h.inPort, h.outPort, k); err != nil {
			n.unreserve(hops[:i], k)
			return fmt.Errorf("admission failed at switch %d: %w", h.node, err)
		}
	}
	return nil
}

// unreserve releases k cells/frame at every hop whose switch is alive (a
// dead switch's frame state was lost at the crash).
func (n *Network) unreserve(hops []hop, k int) {
	for _, h := range hops {
		if !n.deadNodes[h.node] {
			n.switchByIdx[h.idx].Unreserve(h.inPort, h.outPort, k)
		}
	}
}

// bind points the circuit at a resolved route.
func (n *Network) bind(c *Circuit, path []topology.NodeID, r route) {
	c.Path = append([]topology.NodeID(nil), path...)
	c.hops = r.hops
	c.src = n.hosts[path[0]]
	c.firstLink = r.first.ID
	c.firstLatency = r.first.Latency
	c.dst = n.hosts[path[len(path)-1]]
	c.lat = c.dst.stats.LatencyByClass[c.Class]
}

// open resolves path and enters c, otherwise complete, into the circuit
// tables; guaranteed circuits are admitted at every switch first.
func (n *Network) open(c *Circuit, path []topology.NodeID) (*Circuit, error) {
	at, dup := n.circOrder.search(c.VC)
	if dup {
		return nil, fmt.Errorf("%w: %d", ErrDupCircuit, c.VC)
	}
	r, err := n.resolve(path)
	if err != nil {
		return nil, err
	}
	if c.Class == cell.Guaranteed {
		if err := n.reserve(r.hops, c.CellsPerFrame); err != nil {
			return nil, fmt.Errorf("simnet: %w", err)
		}
	}
	n.bind(c, path, r)
	if k := len(n.freeSlots); k > 0 {
		c.slot = n.freeSlots[k-1]
		n.freeSlots = n.freeSlots[:k-1]
		n.slots[c.slot] = c
	} else {
		c.slot = int32(len(n.slots))
		n.slots = append(n.slots, c)
	}
	n.circOrder.insert(at, c)
	n.trace(TraceOpen, c.VC, path[0], -1, 0)
	return c, nil
}

// OpenBestEffort establishes a best-effort circuit along path (host,
// switches..., host).
func (n *Network) OpenBestEffort(vc cell.VCI, path []topology.NodeID) (*Circuit, error) {
	return n.open(&Circuit{VC: vc, Class: cell.BestEffort, window: n.cfg.IngressWindow}, path)
}

// OpenGuaranteed establishes a guaranteed circuit along path and installs
// the reservation (cellsPerFrame) in the frame schedule of every switch on
// the path via Slepian–Duguid insertion. If any switch cannot accommodate
// the reservation, the whole setup is rolled back and an error returned —
// the admission decision bandwidth central would have made.
func (n *Network) OpenGuaranteed(vc cell.VCI, path []topology.NodeID, cellsPerFrame int) (*Circuit, error) {
	if cellsPerFrame < 1 {
		return nil, fmt.Errorf("simnet: cells/frame %d", cellsPerFrame)
	}
	return n.open(&Circuit{VC: vc, Class: cell.Guaranteed, CellsPerFrame: cellsPerFrame}, path)
}

// CloseCircuit tears a circuit down, releasing its reservations, the cells
// still queued at its source, its slot and everything its destination knew
// about it. Cells of the circuit still inside the network are not hunted
// down: each is discarded where it next surfaces — leaving a switch or
// landing off a link, the last link included — and counted in
// DroppedReroute.
func (n *Network) CloseCircuit(vc cell.VCI) error {
	at, ok := n.circOrder.search(vc)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoCircuit, vc)
	}
	c := n.circOrder[at].c
	if c.Class == cell.Guaranteed {
		n.unreserve(c.hops, c.CellsPerFrame)
	}
	n.circOrder.remove(at)
	if c.ready {
		i, _ := n.ready.search(vc)
		n.ready.remove(i)
	}
	n.slots[c.slot] = nil
	n.freeSlots = append(n.freeSlots, c.slot)
	n.trace(TraceClose, vc, -1, -1, 0)
	return nil
}

// Send queues one best-effort cell on the circuit at its source host. For
// guaranteed circuits, use PaceGuaranteed (sources are rate-matched).
func (n *Network) Send(vc cell.VCI, payload [cell.PayloadSize]byte) error {
	c, err := n.find(vc)
	if err != nil {
		return err
	}
	c.reclaim(1)
	c.pending = append(c.pending, cell.Cell{VC: vc, Class: c.Class, Payload: payload})
	n.stamp(c, 1)
	return nil
}

// SendPacket segments a packet into cells, straight into the circuit's
// source queue.
func (n *Network) SendPacket(vc cell.VCI, packet []byte) error {
	c, err := n.find(vc)
	if err != nil {
		return err
	}
	cells := cell.CellsForPacketLen(len(packet))
	c.reclaim(cells)
	if c.pending, err = cell.AppendSegments(c.pending, vc, c.Class, packet); err != nil {
		return fmt.Errorf("simnet: %w", err)
	}
	n.stamp(c, cells)
	return nil
}

// reclaim makes room for k more cells in the source queue without growing
// it when the consumed prefix would do, so a source that keeps a bounded
// backlog stops allocating.
func (c *Circuit) reclaim(k int) {
	if c.pendHead > 0 && len(c.pending)+k > cap(c.pending) {
		c.pending = c.pending[:copy(c.pending, c.pending[c.pendHead:])]
		c.pendHead = 0
	}
}

// stamp marks the k cells just appended to c's source queue with their
// sequence numbers and circuit slot, and puts the circuit on the ready list.
func (n *Network) stamp(c *Circuit, k int) {
	for i := len(c.pending) - k; i < len(c.pending); i++ {
		c.pending[i].Stamp = cell.Stamp{EnqueuedAt: n.slot, Seq: c.nextSeq, Circ: c.slot}
		c.nextSeq++
	}
	if !c.ready {
		c.ready = true
		at, _ := n.ready.search(c.VC)
		n.ready.insert(at, c)
	}
}

// queued returns the number of cells waiting at the source host.
func (c *Circuit) queued() int { return len(c.pending) - c.pendHead }

// knownLink reports whether id names a link of the topology, first sizing
// the per-link state to a graph that has grown since New.
func (n *Network) knownLink(id topology.LinkID) bool {
	if n.g.NumLinks() != len(n.linkCells) {
		n.sizeLinks()
	}
	return id >= 0 && int(id) < len(n.linkCells)
}

// KillLink fails a link: cells and credits in flight on it are lost.
// Killing an already-dead link is a no-op.
func (n *Network) KillLink(id topology.LinkID) {
	if !n.knownLink(id) || n.deadLinks[id] {
		return
	}
	n.deadLinks[id] = true
	n.lastLinkChange[id] = n.slot
	n.trace(TraceKillLink, 0, -1, id, 0)
	n.dropFlights(func(f *flight) bool { return f.link == id }, &n.stats.DroppedInFlight, TraceDropFault)
}

// RestoreLink revives a link. Restoring a live link is a no-op.
func (n *Network) RestoreLink(id topology.LinkID) {
	if !n.knownLink(id) || !n.deadLinks[id] {
		return
	}
	n.deadLinks[id] = false
	n.lastLinkChange[id] = n.slot
	n.trace(TraceRestore, 0, -1, id, 0)
}

// KillSwitch fails a switch: it stops forwarding; its buffered cells are
// lost (drained and counted in DroppedInFlight); its frame-schedule state
// is lost, as crashed hardware loses its memory; cells in flight toward it
// are lost. Killing an already-dead switch is a no-op.
func (n *Network) KillSwitch(id topology.NodeID) {
	sw, ok := n.switches[id]
	if !ok || n.deadNodes[id] {
		return
	}
	n.deadNodes[id] = true
	n.lastNodeChange[id] = n.slot
	// Settle a sleeping switch's clock up to the kill, then take it out of
	// the active set: dead clocks freeze.
	idx := n.orderIdx[id]
	n.wakeIdx(idx)
	n.swState[idx] = swDead
	n.removeActive(idx)
	n.trace(TraceKillNode, 0, id, -1, 0)
	if purged := sw.Purge(); purged > 0 {
		n.stats.DroppedInFlight += int64(purged)
		n.trace(TracePurge, 0, id, -1, uint64(purged))
	}
	if err := sw.ResetFrame(); err != nil {
		panic(err) // the switch's own dimensions; only a bug fails them
	}
	n.dropFlights(func(f *flight) bool { return f.to == id }, &n.stats.DroppedInFlight, TraceDropFault)
}

// RestoreSwitch revives a dead switch, the pair to RestoreLink. The switch
// comes back with empty buffers and an empty frame schedule (its crash
// lost both); the reservations of guaranteed circuits still routed through
// it are re-installed, modeling the circuit-setup replay switch software
// performs when a neighbor returns. Restoring a live switch is a no-op.
func (n *Network) RestoreSwitch(id topology.NodeID) {
	sw, ok := n.switches[id]
	if !ok || !n.deadNodes[id] {
		return
	}
	n.deadNodes[id] = false
	n.lastNodeChange[id] = n.slot
	// Rejoin awake with no idle credit: a dead switch's clock does not
	// advance. The switch sleeps itself after its first quiescent slot if
	// nothing is replayed below.
	idx := n.orderIdx[id]
	n.swState[idx] = swAwake
	n.insertActive(idx)
	n.trace(TraceRestoreNode, 0, id, -1, 0)
	for _, e := range n.circOrder {
		c := e.c
		if c.Class != cell.Guaranteed {
			continue
		}
		for _, h := range c.hops {
			if h.node == id {
				// The frame is empty and held these reservations before
				// the crash, so re-insertion cannot fail.
				_ = sw.Reserve(h.inPort, h.outPort, c.CellsPerFrame)
			}
		}
	}
}

// Reroute moves a circuit to a new path (the paper's local-repair
// extension rerouted circuits around a failed link by sending a new setup
// cell). Cells of the circuit inside the network — in flight on links and
// buffered at old-path switches — are discarded and counted in
// DroppedReroute: exactly the cells the paper says are dropped.
//
// For guaranteed circuits the move is all-or-nothing (make-before-break):
// the new path is reserved first, walking it in path order, and a refused
// admission unwinds the partial new reservations and returns an error with
// the old path's reservations — and the circuit — untouched. Only after
// the whole new path is admitted are the old reservations released on the
// surviving switches. A switch shared by both paths therefore briefly
// holds both reservations, so admission is conservative there.
func (n *Network) Reroute(vc cell.VCI, newPath []topology.NodeID) error {
	c, err := n.find(vc)
	if err != nil {
		return err
	}
	r, err := n.resolve(newPath)
	if err != nil {
		return err
	}
	if c.Class == cell.Guaranteed {
		if err := n.reserve(r.hops, c.CellsPerFrame); err != nil {
			return fmt.Errorf("simnet: reroute %w", err)
		}
		n.unreserve(c.hops, c.CellsPerFrame)
	}
	// Purge the circuit's stale cells from old-path switch buffers: they
	// can no longer follow the circuit's ports and must not linger to
	// inflate backlog or chase dead hops.
	for _, h := range c.hops {
		if n.deadNodes[h.node] {
			continue // purged and counted when the switch died
		}
		if purged := n.switchByIdx[h.idx].PurgeVC(vc); purged > 0 {
			n.stats.DroppedReroute += int64(purged)
			n.trace(TracePurge, vc, h.node, -1, uint64(purged))
		}
	}
	// In-flight cells of this circuit cannot follow the new ports either.
	n.dropFlights(func(f *flight) bool { return f.c.VC == vc }, &n.stats.DroppedReroute, TraceDropRoute)
	n.trace(TraceReroute, vc, -1, -1, 0)
	n.bind(c, newPath, r)
	// Reset ingress window accounting: outstanding cells were dropped.
	// (Callers modeling the credit protocol follow up with ResyncIngress.)
	c.inUse = 0
	return nil
}

// Step advances the whole network one cell slot.
func (n *Network) Step() {
	now := n.slot

	// 1. Ingress credits return to source hosts.
	for _, cr := range n.credits.take(now) {
		if c := n.slots[cr.circ]; c != nil && c.VC == cr.vc && c.inUse > 0 {
			c.inUse--
		}
	}

	// 2. Source injection: each circuit with cells queued moves one into
	// its first switch, subject to the ingress window (best-effort) or the
	// reserved rate (guaranteed: CellsPerFrame cells per frame, evenly
	// paced). The ready list is in ascending VCI order, so the
	// interleaving of cells sharing a link is reproducible run to run; a
	// circuit whose queue empties leaves it.
	kept := n.ready[:0]
	for _, e := range n.ready {
		n.inject(e.c, now)
		if e.c.queued() > 0 {
			kept = append(kept, e)
		} else {
			e.c.ready = false
		}
	}
	clear(n.ready[len(kept):])
	n.ready = kept

	// 3. Deliver the in-flight cells arriving now, in send order. A cell
	// whose circuit was closed while it travelled is a reroute casualty,
	// whichever hop it was on.
	due := n.flights.take(now)
	for i := range due {
		f := &due[i]
		if n.deadLinks[f.link] || n.deadNodes[f.to] {
			n.stats.DroppedInFlight++
			continue
		}
		c := n.circuitOf(&f.c)
		if c == nil {
			n.stats.DroppedReroute++
			continue
		}
		if f.toIdx < 0 {
			n.deliver(c, &f.c, now)
			continue
		}
		k := int(f.c.Stamp.Hop)
		if k >= len(c.hops) || c.hops[k].idx != f.toIdx {
			n.stats.DroppedReroute++
			continue
		}
		h := &c.hops[k]
		// An arrival ends quiescence: a sleeping receiver settles its
		// clock before the cell lands.
		n.wakeIdx(f.toIdx)
		sw := n.switchByIdx[f.toIdx]
		if c.Class == cell.Guaranteed {
			sw.EnqueueGuaranteed(h.inPort, f.c, h.outPort)
		} else {
			sw.EnqueueBestEffort(h.inPort, f.c, h.outPort)
		}
	}

	// 4. Step the awake switches, retiring the quiescent ones to sleep,
	// then route departures onto links in canonical (ascending NodeID)
	// order.
	n.stepAwake(now)
	for _, idx := range n.active {
		n.applyDepartures(idx, now)
	}

	n.slot++
	n.stats.Slots++
	if n.cfg.Obs != nil {
		n.observeSlot(now)
	}
}

// applyDepartures routes the departures the switch at switchOrder
// position idx produced this slot onto its outgoing links. Step invokes it
// in ascending idx order, the canonical application order. It consumes (and
// nils) stepDeps[idx].
func (n *Network) applyDepartures(idx int, now int64) {
	deps := n.stepDeps[idx]
	if deps == nil {
		return
	}
	n.stepDeps[idx] = nil
	for i := range deps {
		d := &deps[i]
		c := n.circuitOf(&d.Cell)
		k := int(d.Cell.Stamp.Hop)
		if c == nil || k >= len(c.hops) || c.hops[k].idx != idx || c.hops[k].outPort != d.Output {
			// The circuit was closed, or closed and its VCI reopened on
			// another route, while the cell was buffered here.
			n.stats.DroppedReroute++
			continue
		}
		h := &c.hops[k]
		if n.deadLinks[h.linkID] {
			n.stats.DroppedInFlight++
			continue
		}
		n.send(now+h.linkLatency, &d.Cell, h.next, h.nextIdx, h.linkID).c.Stamp.Hop++
		if n.cfg.TraceHops {
			n.trace(TraceHop, d.Cell.VC, h.node, h.linkID, d.Cell.Stamp.Seq)
		}
		// First-switch departure returns an ingress credit.
		if k == 0 && c.Class == cell.BestEffort && c.window > 0 {
			at := now + c.firstLatency
			*n.credits.file(at) = ingressCredit{arrive: at, vc: c.VC, circ: c.slot}
		}
	}
}

// observeSlot updates the registry at the end of one slot: drop-counter
// deltas, instantaneous gauges, and the ring-buffer series. Only called
// with a registry configured, so none of the handles are nil.
func (n *Network) observeSlot(now int64) {
	if d := n.stats.DroppedInFlight - n.obsPrevDropF; d > 0 {
		n.obsDropF.Add(0, d)
		n.obsPrevDropF += d
	}
	if d := n.stats.DroppedReroute - n.obsPrevDropR; d > 0 {
		n.obsDropR.Add(0, d)
		n.obsPrevDropR += d
	}
	n.obsSlot.Set(n.slot)
	n.obsInFlight.Set(int64(n.flights.count))
	var iters int64
	for idx, s := range n.switchOrder {
		if n.deadNodes[s] {
			n.obsOcc[idx].Record(now, 0)
			continue
		}
		sw := n.switches[s]
		n.obsOcc[idx].Record(now, int64(sw.Buffered()))
		iters += sw.Stats().PIMIterationsTotal
	}
	n.obsMatch.Record(now, iters-n.obsPrevIters)
	n.obsPrevIters = iters
	for _, e := range n.circOrder {
		c := e.c
		if c.Class != cell.BestEffort || c.window <= 0 {
			continue
		}
		if c.obsCredit == nil {
			c.obsCredit = n.cfg.Obs.Series("circuit_credit_in_use", 0,
				"vc", fmt.Sprint(uint32(c.VC)))
		}
		c.obsCredit.Record(now, int64(c.inUse))
	}
}

// inject moves the circuit's oldest source-pending cell onto the first
// link, if the first hop is alive and the window or the reserved rate
// allows: a host link carries one cell per slot per circuit.
func (n *Network) inject(c *Circuit, now int64) {
	first := &c.hops[0]
	if n.deadNodes[first.node] || n.deadLinks[c.firstLink] {
		return
	}
	if c.Class == cell.Guaranteed {
		// Rate matching: send only in this circuit's share of the frame.
		frame := int64(n.switchByIdx[first.idx].Frame().Slots())
		pos := (now + n.phase[first.idx]) % frame
		// Evenly paced: one cell each frame/CellsPerFrame slots, and never
		// more than CellsPerFrame per frame (rate matching, §5).
		interval := frame / int64(c.CellsPerFrame)
		if interval < 1 {
			interval = 1
		}
		if pos%interval != 0 || pos/interval >= int64(c.CellsPerFrame) {
			return
		}
	} else if c.window > 0 {
		if c.inUse >= c.window {
			return
		}
		c.inUse++
	}
	f := n.send(now+c.firstLatency, &c.pending[c.pendHead], first.node, first.idx, c.firstLink)
	c.pendHead++
	if c.pendHead == len(c.pending) {
		c.pending, c.pendHead = c.pending[:0], 0
	}
	// Latency is measured from network entry: the paper's bounds cover the
	// network, not the host's own send queue (guaranteed sources are
	// rate-matched, so a bursty application queues at the host, not in the
	// network).
	f.c.Stamp.EnqueuedAt = now
	c.src.stats.CellsSent++
	n.obsInjected.Inc(0)
	n.trace(TraceInject, c.VC, first.node, c.firstLink, f.c.Stamp.Seq)
}

// deliver hands a cell to the destination host of its circuit.
func (n *Network) deliver(c *Circuit, cl *cell.Cell, now int64) {
	h := c.dst
	h.stats.CellsReceived++
	n.stats.DeliveredCells++
	c.delivered++
	n.obsDelivered.Inc(0)
	latency := now - cl.Stamp.EnqueuedAt
	if c.Class == cell.Guaranteed {
		n.obsLatG.Observe(0, latency)
	} else {
		n.obsLatBE.Observe(0, latency)
	}
	n.trace(TraceDeliver, c.VC, h.id, -1, cl.Stamp.Seq)
	c.lat.Observe(latency)
	if c.gotAny && cl.Stamp.Seq != c.lastSeq+1 {
		h.stats.OutOfOrder++
	}
	c.gotAny, c.lastSeq = true, cl.Stamp.Seq
	if !c.reasm.Partial() {
		// First cell of a new packet on this circuit.
		c.pktStart = cl.Stamp.EnqueuedAt
	}
	pkt, done, err := c.reasm.Add(cl)
	if !done {
		return
	}
	if err != nil || pkt == nil {
		h.stats.PacketsCorrupt++
		return
	}
	h.keep(pkt)
	h.stats.PacketsReassembled++
	h.stats.PacketLatency.Observe(now - c.pktStart)
}

// Run advances the network the given number of slots.
func (n *Network) Run(slots int64) {
	for i := int64(0); i < slots; i++ {
		n.Step()
	}
}

// MaxGuaranteedOccupancy returns the peak guaranteed-pool occupancy over
// all inputs of all switches right now (experiment E8 probes this each
// slot from outside; this helper reads the instantaneous value).
func (n *Network) MaxGuaranteedOccupancy() int {
	maxOcc := 0
	for _, s := range n.switchOrder {
		if n.deadNodes[s] {
			continue
		}
		sw := n.switches[s]
		for i := 0; i < sw.N(); i++ {
			if occ := sw.BufferedGuaranteed(i); occ > maxOcc {
				maxOcc = occ
			}
		}
	}
	return maxOcc
}

// LinkUtilization returns cells carried per link over the run so far,
// normalized to cells per slot (a full-duplex link counts both
// directions together, each direction carrying at most 1 cell/slot).
func (n *Network) LinkUtilization() map[topology.LinkID]float64 {
	out := make(map[topology.LinkID]float64)
	if n.slot == 0 {
		return out
	}
	for id, cells := range n.linkCells {
		if cells > 0 {
			out[topology.LinkID(id)] = float64(cells) / float64(n.slot)
		}
	}
	return out
}

// TotalBestEffortBacklog returns all best-effort cells buffered in the
// network's switches.
func (n *Network) TotalBestEffortBacklog() int {
	total := 0
	for _, s := range n.switchOrder {
		if n.deadNodes[s] {
			continue
		}
		sw := n.switches[s]
		for i := 0; i < sw.N(); i++ {
			total += sw.BufferedBestEffort(i)
		}
	}
	return total
}

// Topology returns the graph the network was built over.
func (n *Network) Topology() *topology.Graph { return n.g }

// ProbeLink models the hardware liveness check behind the paper's
// monitoring pings (§2): a probe across a link succeeds iff the link is
// live and both endpoints are live (a crashed switch answers no pings, so
// a switch death reads as every one of its links failing — exactly the
// signal the skeptics consume). Probing an unknown link reports false.
func (n *Network) ProbeLink(id topology.LinkID) bool {
	if !n.knownLink(id) || n.deadLinks[id] {
		return false
	}
	l, _ := n.g.Link(id)
	return !n.deadNodes[l.A] && !n.deadNodes[l.B]
}

// LastLinkChangeSlot returns the slot of the link's most recent kill or
// restore — the hardware-truth timestamp recovery experiments measure
// detection lag against. ok is false if the link never changed state.
func (n *Network) LastLinkChangeSlot(id topology.LinkID) (int64, bool) {
	s, ok := n.lastLinkChange[id]
	return s, ok
}

// LastSwitchChangeSlot is LastLinkChangeSlot for switch kill/restore.
func (n *Network) LastSwitchChangeSlot(id topology.NodeID) (int64, bool) {
	s, ok := n.lastNodeChange[id]
	return s, ok
}

// Circuits returns the open circuits in ascending VCI order (a copy of
// the order, sharing the circuit structs).
func (n *Network) Circuits() []*Circuit {
	out := make([]*Circuit, len(n.circOrder))
	for i, e := range n.circOrder {
		out[i] = e.c
	}
	return out
}

// TotalBufferedCells returns every cell buffered inside live switches,
// both classes. Dead switches hold nothing: their buffers were purged and
// counted at the kill.
func (n *Network) TotalBufferedCells() int {
	total := 0
	for _, s := range n.switchOrder {
		if n.deadNodes[s] {
			continue
		}
		sw := n.switches[s]
		for i := 0; i < sw.N(); i++ {
			total += sw.BufferedBestEffort(i) + sw.BufferedGuaranteed(i)
		}
	}
	return total
}

// ResyncIngress re-synchronizes a best-effort circuit's ingress credit
// window after a reroute, the way flowcontrol's epoch resync recovers a
// credit loop: credits still in flight from the old path are discarded and
// the outstanding count is recomputed from the cells actually between the
// source and its first switch. Without this the window would trust
// pre-failure credits and could overshoot or stall.
func (n *Network) ResyncIngress(vc cell.VCI) error {
	c, err := n.find(vc)
	if err != nil {
		return err
	}
	if c.Class != cell.BestEffort || c.window <= 0 {
		return nil
	}
	n.credits.remove(func(cr *ingressCredit) bool { return cr.vc == vc })
	outstanding := 0
	n.flights.each(func(f *flight) {
		if f.c.VC == vc && f.toIdx == c.hops[0].idx {
			outstanding++
		}
	})
	c.inUse = outstanding
	n.trace(TraceResync, vc, -1, -1, uint64(outstanding))
	return nil
}

// IngressWindow reports a best-effort circuit's ingress credit window and
// the number of credits currently outstanding. ok is false for unknown or
// unwindowed circuits. Invariant checkers (the chaos harness) assert
// 0 <= inUse <= window at every slot — a violation means credits were
// minted or leaked across a fault path.
func (n *Network) IngressWindow(vc cell.VCI) (window, inUse int, ok bool) {
	c, err := n.find(vc)
	if err != nil || c.Class != cell.BestEffort || c.window <= 0 {
		return 0, 0, false
	}
	return c.window, c.inUse, true
}

// Snapshot is an instantaneous accounting cut of the network. The
// conservation invariant every fault path must preserve is
//
//	Sent == Delivered + DroppedInFlight + DroppedReroute + Buffered + InFlight
//
// (cells still pending at source hosts are excluded: CellsSent counts at
// injection). Recovery experiments difference two snapshots to attribute
// deliveries and losses to an outage window.
type Snapshot struct {
	Slot            int64
	Sent            int64
	Delivered       int64
	DroppedInFlight int64
	DroppedReroute  int64
	Buffered        int64
	InFlight        int64
}

// Lost returns the cells this cut has counted as dropped on any fault path.
func (s Snapshot) Lost() int64 { return s.DroppedInFlight + s.DroppedReroute }

// Conserved reports whether the accounting identity holds for this cut.
func (s Snapshot) Conserved() bool {
	return s.Sent == s.Delivered+s.DroppedInFlight+s.DroppedReroute+s.Buffered+s.InFlight
}

// Snapshot takes the accounting cut at the current slot.
func (n *Network) Snapshot() Snapshot {
	var sent int64
	for _, h := range n.hosts {
		sent += h.stats.CellsSent
	}
	return Snapshot{
		Slot:            n.slot,
		Sent:            sent,
		Delivered:       n.stats.DeliveredCells,
		DroppedInFlight: n.stats.DroppedInFlight,
		DroppedReroute:  n.stats.DroppedReroute,
		Buffered:        int64(n.TotalBufferedCells()),
		InFlight:        int64(n.flights.count),
	}
}
