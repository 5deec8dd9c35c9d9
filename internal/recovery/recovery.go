// Package recovery closes the paper's §2 loop inside the slot simulation:
// autonomous detect → reconfigure → reroute, with no operator in the path.
//
// A Loop plays the role of the distributed switch software. Every slot it
// pings the inter-switch links (simnet.ProbeLink is the hardware answer)
// and feeds the results to one monitor.Skeptic per link — the same
// skeptics E15 studies in isolation. When a skeptic's believed state
// flips, the loop runs a reconfig round over the surviving topology
// (scoped to a region around the trigger when configured, the paper's
// proposed optimization), waits out the round's convergence time in slot
// time, recomputes deadlock-free up*/down* paths with package routing,
// calls simnet.Reroute for every circuit crossing a believed-dead
// component, and resyncs the ingress credit window of each rerouted
// best-effort circuit the way flowcontrol's epoch resync repairs a credit
// loop. The data plane keeps stepping underneath throughout — the outage
// a failure causes is exactly the window this package measures.
//
// The loop acts on *belief*, never on hardware truth: it reads nothing
// from simnet except probe answers and the circuit table. Detection lag,
// stale beliefs during proving periods, and reroutes refused because the
// control plane's picture is behind the hardware are all part of the
// model, as they were in AN2.
package recovery

import (
	"fmt"
	"sort"

	"repro/internal/cell"
	"repro/internal/ctrlnet"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// Config tunes a Loop.
type Config struct {
	// Net is the live network the loop protects.
	Net *simnet.Network
	// SlotUS converts data-plane slots to the virtual microseconds the
	// skeptics and the reconfiguration protocol run in (default 10 µs per
	// slot — a 53-byte cell at ~42 Mb/s).
	SlotUS int64
	// ProbeIntervalSlots is how often each link is pinged (default 1:
	// every slot, the densest signal the skeptics can get).
	ProbeIntervalSlots int64
	// Skeptic tunes the per-link skeptics. The zero value uses monitor's
	// defaults (100 ms base proving period — very long in slot time; real
	// loops set BaseWaitUS to tens of slots' worth of µs).
	Skeptic monitor.Config
	// ReconfigRadius scopes reconfiguration rounds to switches within this
	// BFS radius of the trigger (§2's "restrict participation to switches
	// near the failing component"). Negative runs global rounds.
	ReconfigRadius int
	// Scoper, when non-nil, replaces the radius-based region choice with a
	// topology-aware hierarchical one (fabric.Partition implements it for
	// fat-trees): the scoper maps each round's trigger switches to the
	// participant set and reports whether the fault escalates past a
	// single locality domain (e.g. touches the spine layer). Takes
	// precedence over ReconfigRadius. Rounds are tallied in Stats as
	// PodRounds vs SpineRounds.
	Scoper Scoper
	// RetrySlots is the delay before re-attempting repair when some
	// circuit could not be rerouted — no path in the believed topology, or
	// admission refused (default 64).
	RetrySlots int64
	// Root is the up*/down* tree root. Default: lowest-numbered switch.
	// If the root itself is believed dead the loop substitutes the lowest
	// believed-live switch for that repair pass.
	Root topology.NodeID
	// CtrlFaults, when non-nil, runs every reconfiguration round over the
	// fault-injected control channel (package ctrlnet) instead of a
	// loss-free one. Each round derives its own seed from
	// CtrlFaults.Seed and the round count, so a Loop run is reproducible
	// from one seed. The pointed-to config is re-read at every round
	// launch, so a caller (the chaos harness) may vary rates between
	// ticks — e.g. a control-loss burst — and stay deterministic.
	CtrlFaults *ctrlnet.Config
	// CtrlTransport, when non-nil, carries every reconfiguration round's
	// control messages instead of a per-round fault-injected channel — the
	// pluggable path that lets a recovery loop speak across real sockets
	// (ctrlnet.UDP) to switches hosted by another process. Takes
	// precedence over CtrlFaults; the loop never closes it (the caller
	// owns its lifecycle), and per-round seed derivation does not apply —
	// the transport's own behavior (real or injected) is the fault model.
	CtrlTransport ctrlnet.Transport
	// CtrlHardening tunes the retransmission/watchdog layer used when
	// CtrlFaults or CtrlTransport is set. Zero value = defaults.
	CtrlHardening reconfig.Hardening
	// Obs, if set, receives the loop's live instruments: probe/detection/
	// reroute counters and the per-round watchdog-retry time series. Share
	// the registry with the network being protected so /metrics shows both
	// planes. Nil disables at no cost.
	Obs *obs.Registry
}

// Scoper chooses the participant set for a reconfiguration round from its
// trigger switches. Implementations partition the fabric into locality
// domains (pods) plus a shared core (spines): a fault confined to one
// domain returns that domain with spine=false; anything touching the
// core, or spanning domains, returns the affected domains plus the core
// with spine=true. The returned region may include believed-dead switches
// — the loop filters them before the round.
type Scoper interface {
	Scope(triggers []topology.NodeID) (region []topology.NodeID, spine bool)
}

func (c Config) withDefaults() Config {
	if c.SlotUS <= 0 {
		c.SlotUS = 10
	}
	if c.ProbeIntervalSlots <= 0 {
		c.ProbeIntervalSlots = 1
	}
	if c.RetrySlots <= 0 {
		c.RetrySlots = 64
	}
	return c
}

// Incident is one believed failure or recovery, with the loop's timeline
// for it. Slots are data-plane slot numbers.
type Incident struct {
	// Kind is "link-down", "link-up", "switch-down" or "switch-up".
	Kind string
	Link topology.LinkID
	// Node is set (>= 0) for switch incidents.
	Node topology.NodeID
	// HardwareSlot is when the hardware actually changed state (-1 if the
	// belief never matched a hardware event, e.g. a flap the skeptic
	// smoothed over).
	HardwareSlot int64
	// DetectSlot is when the skeptic believed the transition.
	DetectSlot int64
	// ReconfigSlots is the convergence time of the reconfiguration round
	// this incident triggered, in slots (rounded up).
	ReconfigSlots int64
	// RepairSlot is when the repair pass that followed finished moving
	// circuits (== DetectSlot + ReconfigSlots for up-incidents, which need
	// no reroute). -1 while repair is still pending.
	RepairSlot int64
	// Rerouted counts circuits moved by this incident's repair pass.
	Rerouted int
	// RetryPasses counts repair passes that ran for this incident but left
	// at least one circuit stranded (no believed-live path, or admission
	// refused), forcing a RetrySlots re-arm.
	RetryPasses int
	// RefusedReroutes totals the individual reroute attempts that failed
	// across those passes.
	RefusedReroutes int
}

// DetectionLagSlots is the monitoring delay: hardware change to belief.
func (i Incident) DetectionLagSlots() int64 {
	if i.HardwareSlot < 0 {
		return 0
	}
	return i.DetectSlot - i.HardwareSlot
}

// OutageSlots is the full window from hardware change to completed repair.
// -1 if the repair never completed.
func (i Incident) OutageSlots() int64 {
	if i.RepairSlot < 0 {
		return -1
	}
	if i.HardwareSlot < 0 {
		return i.RepairSlot - i.DetectSlot
	}
	return i.RepairSlot - i.HardwareSlot
}

// Stats aggregates the loop's work.
type Stats struct {
	Probes         int64
	Detections     int64 // believed transitions (skeptic events)
	ReconfigRounds int64
	ReconfigMsgs   int64
	ReconfigBytes  int64
	Reroutes       int64 // successful circuit moves
	FailedReroutes int64 // no path or admission refused (will retry)
	Resyncs        int64 // ingress credit resyncs issued
	UnroutedAtEnd  int   // circuits still crossing dead elements
	ReconfigUS     int64 // summed convergence time of every round
	MaxReconfigUS  int64 // slowest round's convergence time

	// Hierarchical scope accounting; populated only when Config.Scoper is
	// set. PodRounds are rounds confined to one locality domain;
	// SpineRounds escalated to the shared core. Their sum equals
	// ReconfigRounds in hierarchical mode.
	PodRounds   int64
	SpineRounds int64

	// Control-plane fault accounting; populated only when Config.CtrlFaults
	// runs rounds over the unreliable channel.
	CtrlDropped     int64 // control messages destroyed by the channel
	CtrlCRCRejects  int64 // delivered-but-corrupted messages the codec rejected
	CtrlRetransmits int64 // retransmission timer firings across rounds
	CtrlRetriggers  int64 // watchdog re-triggers across rounds
	CtrlUnconverged int64 // rounds that missed agreement within their bound
}

// Loop is the recovery control loop for one network.
type Loop struct {
	cfg Config
	net *simnet.Network
	g   *topology.Graph

	// links are the monitored inter-switch links in ascending LinkID
	// order — the deterministic probe order.
	links    []topology.Link
	skeptics map[topology.LinkID]*monitor.Skeptic

	// believedDeadLinks / believedDeadNodes is the loop's picture of the
	// topology; it lags hardware by the skeptics' thresholds.
	believedDeadLinks map[topology.LinkID]bool
	believedDeadNodes map[topology.NodeID]bool

	// epoch carries the reconfiguration epoch across rounds, so each new
	// configuration supersedes the last.
	epoch uint64

	// repairAtSlot, when >= 0, schedules the next repair pass — the
	// reconfiguration round's convergence time must elapse (in slot time)
	// before the new routes exist anywhere.
	repairAtSlot int64

	incidents []Incident
	// openIncidents indexes incidents awaiting their repair pass.
	openIncidents []int

	stats Stats

	// Observability handles (nil without Config.Obs; see obs).
	obsProbes     *obs.Counter
	obsDetections *obs.Counter
	obsReroutes   *obs.Counter
	obsFailed     *obs.Counter
	obsRetries    *obs.Series
}

// New builds a Loop over the network's inter-switch topology. All links
// start believed working, matching the skeptics' initial state.
func New(cfg Config) (*Loop, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("recovery: nil network")
	}
	cfg = cfg.withDefaults()
	g := cfg.Net.Topology()
	l := &Loop{
		cfg:               cfg,
		net:               cfg.Net,
		g:                 g,
		skeptics:          make(map[topology.LinkID]*monitor.Skeptic),
		believedDeadLinks: make(map[topology.LinkID]bool),
		believedDeadNodes: make(map[topology.NodeID]bool),
		repairAtSlot:      -1,
	}
	for _, link := range g.Links() {
		if !g.SwitchOnly(link) {
			continue // host links are the host's problem, as in AN2
		}
		l.links = append(l.links, link)
		l.skeptics[link.ID] = monitor.New(cfg.Skeptic)
	}
	sort.Slice(l.links, func(i, j int) bool { return l.links[i].ID < l.links[j].ID })
	if len(l.links) == 0 {
		return nil, fmt.Errorf("recovery: topology has no inter-switch links to monitor")
	}
	if reg := cfg.Obs; reg != nil {
		l.obsProbes = reg.Counter("recovery_probes_total")
		l.obsDetections = reg.Counter("recovery_detections_total")
		l.obsReroutes = reg.Counter("recovery_reroutes_total")
		l.obsFailed = reg.Counter("recovery_failed_reroutes_total")
		l.obsRetries = reg.Series("recovery_watchdog_retries", 0)
	}
	return l, nil
}

// Stats returns the loop's aggregate counters.
func (l *Loop) Stats() Stats {
	s := l.stats
	s.UnroutedAtEnd = len(l.crossingCircuits())
	return s
}

// Incidents returns the believed transitions recorded so far.
func (l *Loop) Incidents() []Incident {
	return append([]Incident(nil), l.incidents...)
}

// BelievesLinkDead reports the loop's current belief about a link.
func (l *Loop) BelievesLinkDead(id topology.LinkID) bool { return l.believedDeadLinks[id] }

// BelievesSwitchDead reports the loop's current belief about a switch.
func (l *Loop) BelievesSwitchDead(id topology.NodeID) bool { return l.believedDeadNodes[id] }

// Quiescent reports whether the loop has no repair work pending and no
// circuit crossing a believed-dead component — the state a finished
// recovery converges to.
func (l *Loop) Quiescent() bool {
	return l.repairAtSlot < 0 && len(l.crossingCircuits()) == 0
}

// Tick runs one slot of control-loop work. Call it once per data-plane
// slot, before or after Network.Step (the loop only probes and reroutes;
// it never moves cells).
func (l *Loop) Tick() {
	slot := l.net.Slot()
	if slot%l.cfg.ProbeIntervalSlots == 0 {
		if changed := l.probe(slot); len(changed) > 0 {
			l.react(slot, changed)
		}
	}
	if l.repairAtSlot >= 0 && slot >= l.repairAtSlot {
		l.repair(slot)
	}
}

// probe pings every monitored link and returns the links whose believed
// state flipped this slot, in ascending LinkID order.
func (l *Loop) probe(slot int64) []topology.Link {
	nowUS := slot * l.cfg.SlotUS
	var changed []topology.Link
	for _, link := range l.links {
		sk := l.skeptics[link.ID]
		l.stats.Probes++
		l.obsProbes.Inc(0)
		if l.net.ProbeLink(link.ID) {
			sk.PingOK(nowUS)
		} else {
			sk.PingFail(nowUS)
		}
		deadNow := sk.State() != monitor.Working
		if deadNow != l.believedDeadLinks[link.ID] {
			if deadNow {
				l.believedDeadLinks[link.ID] = true
			} else {
				delete(l.believedDeadLinks, link.ID)
			}
			changed = append(changed, link)
		}
	}
	return changed
}

// react records incidents for the flipped links (and any switch whose
// believed liveness changed with them), then launches a reconfiguration
// round and schedules the repair pass behind its convergence time.
func (l *Loop) react(slot int64, changed []topology.Link) {
	for _, link := range changed {
		down := l.believedDeadLinks[link.ID]
		kind := "link-up"
		if down {
			kind = "link-down"
		}
		hw := int64(-1)
		if s, ok := l.net.LastLinkChangeSlot(link.ID); ok {
			hw = s
		}
		l.addIncident(Incident{
			Kind: kind, Link: link.ID, Node: -1,
			HardwareSlot: hw, DetectSlot: slot, RepairSlot: -1,
		})
		l.net.EmitEvent(simnet.TraceEvent{
			Kind: simnet.TraceRecoveryDetect, Node: -1, Link: int32(link.ID),
			Seq:      uint64(len(l.incidents)),
			Incident: int64(len(l.incidents)), Epoch: l.epoch,
		})
		l.stats.Detections++
		l.obsDetections.Inc(0)
	}
	l.refreshNodeBeliefs(slot)

	// One reconfiguration round covers every transition believed this
	// slot, as one real round would.
	triggers := l.triggersFor(changed)
	if len(triggers) > 0 {
		if us := l.runReconfig(triggers); us > 0 {
			delay := (us + l.cfg.SlotUS - 1) / l.cfg.SlotUS
			for _, idx := range l.openIncidents {
				l.incidents[idx].ReconfigSlots = delay
			}
			l.scheduleRepair(slot + delay)
			return
		}
	}
	// No live switch could run the protocol (or the round degenerated);
	// repair on the loop's own knowledge immediately.
	l.scheduleRepair(slot)
}

// addIncident appends the incident and indexes it as awaiting the next
// repair pass. Up-transitions need no reroute, so their pass closes them
// immediately — their outage window is just detection plus reconfiguration.
func (l *Loop) addIncident(inc Incident) {
	l.incidents = append(l.incidents, inc)
	l.openIncidents = append(l.openIncidents, len(l.incidents)-1)
}

// refreshNodeBeliefs derives switch liveness from link beliefs: a switch
// with every monitored link believed dead is believed dead (a crashed
// switch answers no pings, so this is exactly how a crash presents).
func (l *Loop) refreshNodeBeliefs(slot int64) {
	for _, s := range l.g.Switches() {
		total, dead := 0, 0
		for _, id := range l.g.Ports(s) {
			if id < 0 || !l.g.SwitchOnly(*l.g.LinkRef(id)) {
				continue
			}
			total++
			if l.believedDeadLinks[id] {
				dead++
			}
		}
		believedDead := total > 0 && dead == total
		if believedDead == l.believedDeadNodes[s] {
			continue
		}
		kind := "switch-up"
		if believedDead {
			l.believedDeadNodes[s] = true
			kind = "switch-down"
		} else {
			delete(l.believedDeadNodes, s)
		}
		hw := int64(-1)
		if hs, ok := l.net.LastSwitchChangeSlot(s); ok {
			hw = hs
		}
		l.addIncident(Incident{
			Kind: kind, Link: -1, Node: s,
			HardwareSlot: hw, DetectSlot: slot, RepairSlot: -1,
		})
		l.net.EmitEvent(simnet.TraceEvent{
			Kind: simnet.TraceRecoveryDetect, Node: int32(s), Link: -1,
			Seq:      uint64(len(l.incidents)),
			Incident: int64(len(l.incidents)), Epoch: l.epoch,
		})
		l.stats.Detections++
		l.obsDetections.Inc(0)
	}
}

// triggersFor builds the reconfiguration triggers: each believed-live
// switch adjacent to a flipped link detects the change.
func (l *Loop) triggersFor(changed []topology.Link) []reconfig.Trigger {
	seen := make(map[topology.NodeID]bool)
	var triggers []reconfig.Trigger
	for _, link := range changed {
		for _, end := range []topology.NodeID{link.A, link.B} {
			if n, ok := l.g.Node(end); !ok || n.Kind != topology.Switch {
				continue
			}
			if l.believedDeadNodes[end] || seen[end] {
				continue
			}
			seen[end] = true
			triggers = append(triggers, reconfig.Trigger{Node: end})
		}
	}
	sort.Slice(triggers, func(i, j int) bool { return triggers[i].Node < triggers[j].Node })
	return triggers
}

// runReconfig executes one reconfiguration round over the believed
// topology and returns its convergence time in µs (0 if the round could
// not run).
func (l *Loop) runReconfig(triggers []reconfig.Trigger) int64 {
	runner, err := reconfig.New(reconfig.Config{
		Topology:  l.g,
		DeadLinks: l.believedDeadLinks,
		DeadNodes: l.believedDeadNodes,
		BaseEpoch: l.epoch,
	})
	if err != nil {
		return 0
	}
	region, spine := l.scopeRegion(runner, triggers)
	var res *reconfig.Result
	ctrlRetries := int64(-1)  // >= 0 marks a round run over the faulty channel
	tr := l.cfg.CtrlTransport // caller-supplied: its behavior IS the fault model
	if tr == nil && l.cfg.CtrlFaults != nil {
		// Unreliable control plane: re-read the shared fault config (the
		// chaos harness varies rates between ticks) and give the round its
		// own deterministic seed.
		faults := *l.cfg.CtrlFaults
		faults.Seed = roundSeed(faults.Seed, l.stats.ReconfigRounds)
		if faults.Obs == nil {
			faults.Obs = l.cfg.Obs // control-plane loss lands in the shared registry
		}
		if tr, err = ctrlnet.New(faults); err != nil {
			return 0
		}
	}
	switch {
	case tr != nil:
		var ur *reconfig.UnreliableResult
		if ur, err = runner.RunOver(triggers, region, tr, l.cfg.CtrlHardening); err != nil {
			return 0
		}
		l.stats.CtrlDropped += ur.Channel.Lost()
		l.stats.CtrlCRCRejects += ur.CRCRejects
		l.stats.CtrlRetransmits += ur.Retransmits
		l.stats.CtrlRetriggers += ur.Retriggers
		if !ur.Converged {
			l.stats.CtrlUnconverged++
		}
		ctrlRetries = ur.Retransmits + ur.Retriggers
		res = &ur.Result
	case region != nil:
		res, err = runner.RunScoped(triggers, region)
	default:
		res, err = runner.Run(triggers)
	}
	if err != nil || res == nil {
		return 0
	}
	l.stats.ReconfigRounds++
	if l.cfg.Scoper != nil {
		if spine {
			l.stats.SpineRounds++
		} else {
			l.stats.PodRounds++
		}
	}
	l.stats.ReconfigMsgs += res.Messages
	l.stats.ReconfigBytes += res.Bytes
	l.stats.ReconfigUS += res.MaxCompletionUS
	if res.MaxCompletionUS > l.stats.MaxReconfigUS {
		l.stats.MaxReconfigUS = res.MaxCompletionUS
	}
	if e := res.Epoch(); e > l.epoch {
		l.epoch = e
	}
	// The round launches now and converges delaySlots later; the repair
	// pass waits exactly that long, and the span [Slot, Slot+Dur] is what
	// the Chrome timeline draws.
	delaySlots := (res.MaxCompletionUS + l.cfg.SlotUS - 1) / l.cfg.SlotUS
	l.net.EmitEvent(simnet.TraceEvent{
		Kind: simnet.TraceRecoveryReconfig, Node: -1, Link: -1,
		Seq: uint64(res.MaxCompletionUS), Dur: delaySlots,
		Incident: int64(len(l.incidents)), Epoch: l.epoch,
	})
	if ctrlRetries >= 0 {
		l.net.EmitEvent(simnet.TraceEvent{
			Kind: obs.KindCtrlRound, Node: -1, Link: -1,
			Seq: uint64(ctrlRetries), Dur: delaySlots,
			Incident: int64(len(l.incidents)), Epoch: l.epoch,
		})
		l.obsRetries.Record(l.net.Slot(), ctrlRetries)
	}
	return res.MaxCompletionUS
}

// scopeRegion picks this round's participant set: hierarchical (Scoper),
// radius-based (ReconfigRadius >= 0), or — a nil region — every live
// switch. spine reports hierarchical escalation.
func (l *Loop) scopeRegion(runner *reconfig.Runner, triggers []reconfig.Trigger) (region reconfig.Region, spine bool) {
	if l.cfg.Scoper != nil {
		nodes := make([]topology.NodeID, len(triggers))
		for i, t := range triggers {
			nodes[i] = t.Node
		}
		picked, esc := l.cfg.Scoper.Scope(nodes)
		region = make(reconfig.Region, len(picked))
		for _, s := range picked {
			if !l.believedDeadNodes[s] {
				region[s] = true
			}
		}
		// Triggers are believed-live by construction; keep them in even if
		// the scoper missed one.
		for _, t := range triggers {
			region[t.Node] = true
		}
		return region, esc
	}
	if l.cfg.ReconfigRadius >= 0 {
		return runner.RegionOf(triggers, l.cfg.ReconfigRadius), false
	}
	return nil, false
}

// roundSeed derives a per-round channel seed from the base seed, so every
// reconfiguration round sees fresh fault decisions but the whole Loop run
// replays exactly from one number (splitmix64 finalizer).
func roundSeed(base, round int64) int64 {
	z := uint64(base) + (uint64(round)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// scheduleRepair arms the repair pass, keeping the earliest requested slot
// if one is already pending.
func (l *Loop) scheduleRepair(at int64) {
	if l.repairAtSlot < 0 || at < l.repairAtSlot {
		l.repairAtSlot = at
	}
}

// crossingCircuits returns the open circuits whose path uses a
// believed-dead link or switch, in VCI order.
func (l *Loop) crossingCircuits() []*simnet.Circuit {
	var out []*simnet.Circuit
	for _, c := range l.net.Circuits() {
		if l.pathCrossesDead(c.Path) {
			out = append(out, c)
		}
	}
	return out
}

func (l *Loop) pathCrossesDead(path []topology.NodeID) bool {
	for i, n := range path {
		if l.believedDeadNodes[n] {
			return true
		}
		if i+1 < len(path) {
			if link, ok := l.g.LinkBetween(n, path[i+1]); ok && l.believedDeadLinks[link.ID] {
				return true
			}
		}
	}
	return false
}

// repair recomputes up*/down* routes over the believed topology and moves
// every circuit crossing a believed-dead component. Circuits it cannot
// move (partitioned, or admission refused) stay put; the pass re-arms
// itself RetrySlots later so they are retried — a transient admission
// conflict clears when another circuit moves away.
func (l *Loop) repair(slot int64) {
	l.repairAtSlot = -1
	crossing := l.crossingCircuits()
	rerouted, failed := 0, 0
	// Span attribution: the pass serves the oldest open incident.
	serving := int64(0)
	if len(l.openIncidents) > 0 {
		serving = int64(l.openIncidents[0] + 1)
	}
	if len(crossing) > 0 {
		router := l.buildRouter()
		for _, c := range crossing {
			if router == nil {
				failed++
				continue
			}
			src, dst := c.Path[0], c.Path[len(c.Path)-1]
			newPath, err := router.ShortestLegal(src, dst)
			if err != nil {
				failed++ // no believed-live path; retry later
				continue
			}
			if err := l.net.Reroute(c.VC, newPath); err != nil {
				failed++ // admission refused or belief behind hardware
				continue
			}
			rerouted++
			l.stats.Reroutes++
			l.obsReroutes.Inc(0)
			l.net.EmitEvent(simnet.TraceEvent{
				Kind: simnet.TraceRecoveryReroute, VC: uint32(c.VC),
				Node: -1, Link: -1, Seq: uint64(slot),
				Incident: serving, Epoch: l.epoch,
			})
			if c.Class == cell.BestEffort {
				if l.net.ResyncIngress(c.VC) == nil {
					l.stats.Resyncs++
				}
			}
		}
		l.stats.FailedReroutes += int64(failed)
		l.obsFailed.Add(0, int64(failed))
	}
	// Close the incidents this pass served.
	var stillOpen []int
	for _, idx := range l.openIncidents {
		inc := &l.incidents[idx]
		if failed > 0 && (inc.Kind == "link-down" || inc.Kind == "switch-down") {
			// Down-incidents stay open until every crossing circuit is
			// handled, so the outage window keeps growing while any
			// circuit is stranded.
			inc.RetryPasses++
			inc.RefusedReroutes += failed
			inc.Rerouted += rerouted
			stillOpen = append(stillOpen, idx)
			continue
		}
		inc.RepairSlot = slot
		inc.Rerouted += rerouted
		// The closing event carries the whole incident on its span fields:
		// Dur is the outage window (the number E27 reports), Seq the
		// circuits moved — an2trace rebuilds the incident from this alone.
		l.net.EmitEvent(simnet.TraceEvent{
			Kind: simnet.TraceRecoveryRepair,
			Node: int32(inc.Node), Link: int32(inc.Link),
			Seq: uint64(inc.Rerouted), Incident: int64(idx + 1),
			Dur: inc.OutageSlots(), Epoch: l.epoch,
		})
	}
	l.openIncidents = stillOpen
	if failed > 0 {
		l.net.EmitEvent(simnet.TraceEvent{
			Kind: simnet.TraceRecoveryRetry, Node: -1, Link: -1,
			Seq: uint64(failed), Incident: serving, Epoch: l.epoch,
		})
		l.scheduleRepair(slot + l.cfg.RetrySlots)
	}
}

// buildRouter constructs the up*/down* router over the believed topology,
// or nil if no believed-live switch exists to root the tree.
func (l *Loop) buildRouter() *routing.Router {
	dead := make(map[topology.LinkID]bool, len(l.believedDeadLinks))
	for id := range l.believedDeadLinks {
		dead[id] = true
	}
	for s := range l.believedDeadNodes {
		for _, id := range l.g.Ports(s) {
			if id >= 0 {
				dead[id] = true
			}
		}
	}
	root := l.cfg.Root
	if _, ok := l.g.Node(root); !ok || l.believedDeadNodes[root] {
		root = -1
		for _, s := range l.g.Switches() {
			if !l.believedDeadNodes[s] {
				root = s
				break
			}
		}
		if root < 0 {
			return nil
		}
	}
	r, err := routing.NewRouter(l.g, root, dead)
	if err != nil {
		return nil
	}
	return r
}
