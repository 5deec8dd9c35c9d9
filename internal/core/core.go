// Package core assembles the AN2 system: the data-plane simulator
// (simnet), the distributed reconfiguration protocol (reconfig), up*/down*
// routing oriented by the reconfiguration spanning tree (routing),
// bandwidth central (bwcentral), and the virtual-circuit machinery — into
// one local area network, the way a deployment at SRC would wire them
// together.
//
// LAN is the public face of the reproduction: create one over a topology,
// open best-effort circuits and reserve guaranteed bandwidth between
// hosts, send packets, pull the plug on a switch, and watch the network
// reconfigure and reroute around the failure.
package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/bwcentral"
	"repro/internal/cell"
	"repro/internal/obs"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/switchnode"
	"repro/internal/topology"
)

// ingressWindow is the best-effort credit window, in cells, at each
// source.
const ingressWindow = 32

// Config configures a LAN.
type Config struct {
	// Topology is the network graph; it must contain at least one switch
	// and be connected across its switches.
	Topology *topology.Graph
	// FrameSlots is the guaranteed-traffic frame size (default 1024;
	// tests and examples use smaller frames for speed).
	FrameSlots int
	// LinkCapacityCellsPerFrame is each link's guaranteed capacity used
	// by bandwidth central for admission (default: half the frame, so
	// best-effort always has headroom).
	LinkCapacityCellsPerFrame int
	// PIMIterations is the per-slot matching budget (default 3).
	PIMIterations int
	// Policy is bandwidth central's route heuristic (default MinHop).
	Policy bwcentral.Policy
	// Seed drives all randomness.
	Seed int64
	// Tracer, if set, receives every data-plane event (see simnet).
	Tracer simnet.Tracer
	// TraceHops additionally traces every switch departure (see
	// simnet.Config.TraceHops); cmd/an2trace uses hop events to decompose
	// per-cell latency.
	TraceHops bool
	// Obs, if set, receives live instrument updates from the data plane
	// (see simnet.Config.Obs). Nil disables observability at no cost.
	Obs *obs.Registry
}

// LAN is a running AN2 network.
type LAN struct {
	cfg       Config
	g         *topology.Graph
	net       *simnet.Network
	router    *routing.Router
	central   *bwcentral.Central
	centralAt topology.NodeID
	deadLinks map[topology.LinkID]bool
	deadNodes map[topology.NodeID]bool

	circuits map[cell.VCI]*circuitInfo
	nextVC   cell.VCI

	epoch Epoch
}

// Epoch is what the LAN keeps of its last reconfiguration: the winning tag
// (the next run starts above its epoch), the convergence time in virtual µs
// and the winning tree's depth. The per-switch views, each the whole learned
// topology, are dropped; the tree they describe lives on in Router().Tree().
type Epoch struct {
	Tag             reconfig.Tag
	MaxCompletionUS int64
	TreeDepth       int
}

// circuitInfo is the LAN's bookkeeping for an open circuit.
type circuitInfo struct {
	vc        cell.VCI
	class     cell.Class
	src, dst  topology.NodeID
	path      []topology.NodeID
	rate      int
	centralVC cell.VCI // bwcentral's reservation id (guaranteed only)
}

// PlugReport describes what happened when a switch was unplugged.
type PlugReport struct {
	// Victim is the switch that was unplugged.
	Victim topology.NodeID
	// ReconfigTimeUS is the virtual time the reconfiguration took to
	// converge across all survivors.
	ReconfigTimeUS int64
	// Rerouted counts circuits moved to new paths.
	Rerouted int
	// Unroutable counts circuits that could not be restored (their
	// endpoints were cut off).
	Unroutable int
}

// Errors.
var (
	ErrNoTopology = errors.New("core: nil topology")
	ErrNoCircuit  = errors.New("core: no such circuit")
	ErrDeadSwitch = errors.New("core: switch is already dead")
)

// New builds the LAN and boots it: an initial reconfiguration runs (as
// when the first switch powers on), the routing orientation is taken from
// its spanning tree, and bandwidth central is elected.
func New(cfg Config) (*LAN, error) {
	if cfg.Topology == nil {
		return nil, ErrNoTopology
	}
	if cfg.FrameSlots == 0 {
		cfg.FrameSlots = 1024
	}
	if cfg.LinkCapacityCellsPerFrame == 0 {
		cfg.LinkCapacityCellsPerFrame = cfg.FrameSlots / 2
	}
	switches := cfg.Topology.Switches()
	if len(switches) == 0 {
		return nil, errors.New("core: topology has no switches")
	}
	net, err := simnet.New(simnet.Config{
		Topology: cfg.Topology,
		Switch: switchnode.Config{
			FrameSlots:    cfg.FrameSlots,
			PIMIterations: cfg.PIMIterations,
			Seed:          cfg.Seed,
		},
		IngressWindow: ingressWindow,
		Tracer:        cfg.Tracer,
		TraceHops:     cfg.TraceHops,
		Obs:           cfg.Obs,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	l := &LAN{
		cfg:       cfg,
		g:         cfg.Topology,
		net:       net,
		deadLinks: make(map[topology.LinkID]bool),
		deadNodes: make(map[topology.NodeID]bool),
		circuits:  make(map[cell.VCI]*circuitInfo),
		nextVC:    1,
	}
	// Boot reconfiguration, initiated by the first switch to power on.
	if _, err := l.Reconfigure([]reconfig.Trigger{{Node: switches[0]}}); err != nil {
		return nil, fmt.Errorf("core: boot: %w", err)
	}
	return l, nil
}

// Reconfigure runs the distributed reconfiguration protocol with the given
// triggers over the surviving topology, then rebuilds routing (oriented by
// the new spanning tree) and re-elects bandwidth central. The full result
// goes to the caller; the LAN keeps only its Epoch.
func (l *LAN) Reconfigure(triggers []reconfig.Trigger) (*reconfig.Result, error) {
	runner, err := reconfig.New(reconfig.Config{
		Topology:  l.g,
		DeadLinks: l.deadLinks,
		DeadNodes: l.deadNodes,
		BaseEpoch: l.epoch.Tag.Epoch,
	})
	if err != nil {
		return nil, err
	}
	res, err := runner.Run(triggers)
	if err != nil {
		return nil, err
	}
	if err := runner.Agreement(res); err != nil {
		return nil, fmt.Errorf("core: reconfiguration disagreement: %w", err)
	}
	// Adopt the winning configuration's spanning tree as the up*/down*
	// orientation, exactly as AN1 does.
	tree := &routing.Tree{
		Level:  make(map[topology.NodeID]int, len(res.Views)),
		Parent: make(map[topology.NodeID]topology.NodeID, len(res.Views)),
	}
	epoch := Epoch{MaxCompletionUS: res.MaxCompletionUS, TreeDepth: res.TreeDepth}
	for s, v := range res.Views {
		tree.Level[s] = v.Depth
		tree.Parent[s] = v.Parent
		if v.Parent == topology.None {
			tree.Root = s
		}
		if epoch.Tag.Less(v.Tag) {
			epoch.Tag = v.Tag
		}
	}
	router, err := routing.NewRouterWithTree(l.g, tree, l.deadLinks)
	if err != nil {
		return nil, err
	}
	l.router = router
	l.epoch = epoch

	at, err := bwcentral.Elect(l.g, l.deadNodes)
	if err != nil {
		return nil, err
	}
	l.centralAt = at
	central, err := bwcentral.New(bwcentral.Config{
		Topology:     l.g,
		Router:       router,
		LinkCapacity: l.cfg.LinkCapacityCellsPerFrame,
		Policy:       l.cfg.Policy,
	})
	if err != nil {
		return nil, err
	}
	l.central = central
	// Replay existing guaranteed reservations into the fresh central so
	// its accounting reflects reality: each circuit is re-registered on
	// the exact path it is actually using. Circuits whose path died are
	// re-admitted later by the reroute step.
	for _, vc := range l.Circuits() {
		ci := l.circuits[vc]
		if ci.class != cell.Guaranteed {
			continue
		}
		if res2, err := central.RequestPath(ci.src, ci.dst, ci.path, ci.rate); err == nil {
			ci.centralVC = res2.VC
		}
	}
	return res, nil
}

// Topology returns the network graph the LAN was built over (shared, not
// a copy — callers must not mutate it).
func (l *LAN) Topology() *topology.Graph { return l.g }

// FrameSlots returns the guaranteed-traffic frame size after defaulting.
func (l *LAN) FrameSlots() int { return l.cfg.FrameSlots }

// CentralAt returns the switch hosting bandwidth central.
func (l *LAN) CentralAt() topology.NodeID { return l.centralAt }

// LastReconfig returns the summary of the most recent reconfiguration.
func (l *LAN) LastReconfig() Epoch { return l.epoch }

// Router exposes the current route computation (read-only use).
func (l *LAN) Router() *routing.Router { return l.router }

// OpenBestEffort opens a best-effort circuit between two hosts along the
// shortest up*/down*-legal path and returns its VCI.
func (l *LAN) OpenBestEffort(src, dst topology.NodeID) (cell.VCI, error) {
	path, err := l.router.ShortestLegal(src, dst)
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	vc := l.allocVC()
	if _, err := l.net.OpenBestEffort(vc, path); err != nil {
		return 0, err
	}
	l.circuits[vc] = &circuitInfo{
		vc: vc, class: cell.BestEffort, src: src, dst: dst, path: path,
	}
	return vc, nil
}

// Reserve asks bandwidth central for a guaranteed circuit of cellsPerFrame
// between two hosts. On grant, the reservation is installed in the frame
// schedule of every switch on the chosen route.
func (l *LAN) Reserve(src, dst topology.NodeID, cellsPerFrame int) (cell.VCI, error) {
	res, err := l.central.Request(src, dst, cellsPerFrame)
	if err != nil {
		return 0, err
	}
	vc := l.allocVC()
	if _, err := l.net.OpenGuaranteed(vc, res.Path, cellsPerFrame); err != nil {
		_ = l.central.Release(res.VC)
		return 0, err
	}
	l.circuits[vc] = &circuitInfo{
		vc: vc, class: cell.Guaranteed, src: src, dst: dst,
		path: res.Path, rate: cellsPerFrame, centralVC: res.VC,
	}
	return vc, nil
}

// Close tears down a circuit.
func (l *LAN) Close(vc cell.VCI) error {
	ci, ok := l.circuits[vc]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoCircuit, vc)
	}
	if ci.class == cell.Guaranteed {
		_ = l.central.Release(ci.centralVC)
	}
	delete(l.circuits, vc)
	return l.net.CloseCircuit(vc)
}

func (l *LAN) allocVC() cell.VCI {
	vc := l.nextVC
	l.nextVC++
	return vc
}

// Send queues one cell of payload on the circuit.
func (l *LAN) Send(vc cell.VCI, payload [cell.PayloadSize]byte) error {
	return l.net.Send(vc, payload)
}

// SendPacket segments a packet onto the circuit.
func (l *LAN) SendPacket(vc cell.VCI, packet []byte) error {
	return l.net.SendPacket(vc, packet)
}

// Run advances the data plane the given number of cell slots.
func (l *LAN) Run(slots int64) { l.net.Run(slots) }

// Slot returns the data-plane slot count.
func (l *LAN) Slot() int64 { return l.net.Slot() }

// Packets returns and clears packets reassembled at a host. The batch,
// its packets included, stays valid until the next Packets call for the
// same host, which reuses its storage; copy a packet to keep it longer.
func (l *LAN) Packets(host topology.NodeID) [][]byte { return l.net.Packets(host) }

// HostStats returns a host's counters.
func (l *LAN) HostStats(host topology.NodeID) (*simnet.HostStats, bool) {
	return l.net.HostStats(host)
}

// NetStats returns network-wide counters.
func (l *LAN) NetStats() simnet.NetStats { return l.net.Stats() }

// Snapshot returns the data plane's cell-accounting snapshot, whose
// Conserved check is the global no-cell-created-or-lost invariant chaos
// harnesses assert every step.
func (l *LAN) Snapshot() simnet.Snapshot { return l.net.Snapshot() }

// LinkUtilization returns per-link carried load in cells/slot.
func (l *LAN) LinkUtilization() map[topology.LinkID]float64 {
	return l.net.LinkUtilization()
}

// Circuits returns the open circuit ids in ascending order.
func (l *LAN) Circuits() []cell.VCI {
	out := make([]cell.VCI, 0, len(l.circuits))
	for vc := range l.circuits {
		out = append(out, vc)
	}
	slices.Sort(out)
	return out
}

// CircuitPath returns the current path of a circuit.
func (l *LAN) CircuitPath(vc cell.VCI) ([]topology.NodeID, bool) {
	ci, ok := l.circuits[vc]
	if !ok {
		return nil, false
	}
	return append([]topology.NodeID(nil), ci.path...), true
}

// PullPlug is the paper's favorite demo: unplug an arbitrary switch. The
// switch dies mid-traffic; its ex-neighbors detect the failure and trigger
// a reconfiguration; routing reorients to the new spanning tree; and every
// circuit that crossed the victim is rerouted. Users see no service
// interruption beyond the cells that were in flight.
func (l *LAN) PullPlug(victim topology.NodeID) (*PlugReport, error) {
	if l.deadNodes[victim] {
		return nil, fmt.Errorf("%w: %d", ErrDeadSwitch, victim)
	}
	node, ok := l.g.Node(victim)
	if !ok || node.Kind != topology.Switch {
		return nil, fmt.Errorf("core: %d is not a switch", victim)
	}
	// The plug comes out: the data plane loses the switch instantly, and
	// every link it terminated is dead with it (the router must know).
	l.net.KillSwitch(victim)
	l.deadNodes[victim] = true
	for _, id := range l.g.Ports(victim) {
		if id >= 0 {
			l.deadLinks[id] = true
			l.net.KillLink(id)
		}
	}

	// Every ex-neighbor's link monitor notices and triggers.
	var triggers []reconfig.Trigger
	for _, nb := range l.g.SwitchNeighbors(victim) {
		if !l.deadNodes[nb] {
			triggers = append(triggers, reconfig.Trigger{Node: nb})
		}
	}
	if len(triggers) == 0 {
		return nil, errors.New("core: victim had no live switch neighbors")
	}
	res, err := l.Reconfigure(triggers)
	if err != nil {
		return nil, err
	}
	report := &PlugReport{Victim: victim, ReconfigTimeUS: res.MaxCompletionUS}

	// Reroute circuits that crossed the victim, in VCI order: admission on
	// shared links and the trace depend on who moves first.
	for _, vc := range l.Circuits() {
		ci := l.circuits[vc]
		crosses := false
		for _, n := range ci.path {
			if l.deadNodes[n] {
				crosses = true
				break
			}
		}
		if !crosses {
			continue
		}
		newPath, err := l.router.ShortestLegal(ci.src, ci.dst)
		if err != nil {
			report.Unroutable++
			_ = l.Close(vc)
			continue
		}
		if err := l.net.Reroute(vc, newPath); err != nil {
			report.Unroutable++
			_ = l.Close(vc)
			continue
		}
		// Move bandwidth central's accounting to the new path.
		if ci.class == cell.Guaranteed {
			_ = l.central.Release(ci.centralVC)
			if res2, err := l.central.RequestPath(ci.src, ci.dst, newPath, ci.rate); err == nil {
				ci.centralVC = res2.VC
			}
		}
		ci.path = newPath
		report.Rerouted++
	}
	return report, nil
}
