package chaos

import (
	"fmt"
	"math/rand"

	"repro/internal/cell"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/simnet"
	"repro/internal/switchnode"
	"repro/internal/topology"
)

// Violation is one broken invariant: what failed, when, and why.
type Violation struct {
	// Slot is when the check failed (Horizon for end-state checks).
	Slot int64
	// Invariant names the check: "conservation", "engine-sleep",
	// "credit-window", "watchdog-budget", "unconverged", "not-quiescent",
	// "stranded", "no-delivery".
	Invariant string
	Detail    string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("slot %d: %s: %s", v.Slot, v.Invariant, v.Detail)
}

// Result is one completed (or invariant-terminated) chaos run.
type Result struct {
	// Violation is nil when every invariant held.
	Violation *Violation
	Stats     recovery.Stats
	Snapshot  simnet.Snapshot
}

// chaosSkeptic tunes link monitoring to slot time (SlotUS=10): belief in
// a death after 2 failed pings, in a recovery after 30 error-free slots,
// escalating to 500 slots under recurrence — which is why Schedule.Grace
// must be generous.
var chaosSkeptic = monitor.Config{
	FailThreshold: 2,
	BaseWaitUS:    300,
	MaxWaitUS:     5_000,
	DecayUS:       10_000,
	Skeptical:     true,
}

// fixtureGraph builds the fixed 3×3 torus with one host per switch.
func fixtureGraph() *topology.Graph {
	g, err := topology.Torus(3, 3, 1)
	if err != nil {
		panic(err) // fixed dimensions; cannot fail
	}
	if err := topology.AttachHosts(g, 1, 1); err != nil {
		panic(err)
	}
	return g
}

// fixturePaths returns the circuit paths as switch sequences. Six
// best-effort paths cross the victim switches from every side (plus one
// corner-ring control path no fault can touch), and two guaranteed paths
// cross the center. Every endpoint is a corner.
func fixturePaths() (be, gtd [][]topology.NodeID) {
	be = [][]topology.NodeID{
		{0, 1, 2},       // across victim 1
		{0, 3, 6},       // across victim 3
		{2, 5, 8},       // across victim 5
		{6, 7, 8},       // across victim 7
		{0, 1, 4, 5, 8}, // across the center
		{2, 1, 4, 3, 6}, // across the center, other diagonal
		{0, 2},          // corner wrap link: untouchable control circuit
	}
	gtd = [][]topology.NodeID{
		{0, 3, 4, 5, 8},
		{6, 7, 4, 1, 2},
	}
	return be, gtd
}

// fixture is one freshly built network + loop for a schedule.
type fixture struct {
	net    *simnet.Network
	loop   *recovery.Loop
	beVCs  []cell.VCI
	gtdVCs []cell.VCI
}

// build constructs the deterministic fixture for a schedule. tracer and
// reg are optional observability taps; neither changes the run's
// behavior, only what it reports.
func build(s Schedule, tracer simnet.Tracer, reg *obs.Registry) (*fixture, error) {
	g := fixtureGraph()
	n, err := simnet.New(simnet.Config{
		Topology:      g,
		Switch:        switchnode.Config{FrameSlots: 64, Discipline: switchnode.DisciplinePerVC, Seed: s.Seed},
		IngressWindow: 16,
		Tracer:        tracer,
		Obs:           reg,
	})
	if err != nil {
		return nil, err
	}
	hostOf := make(map[topology.NodeID]topology.NodeID)
	for _, h := range g.Hosts() {
		nb := g.Neighbors(h)
		if len(nb) == 1 {
			hostOf[nb[0]] = h
		}
	}
	withHosts := func(sw []topology.NodeID) []topology.NodeID {
		p := make([]topology.NodeID, 0, len(sw)+2)
		p = append(p, hostOf[sw[0]])
		p = append(p, sw...)
		return append(p, hostOf[sw[len(sw)-1]])
	}
	f := &fixture{net: n}
	bePaths, gtdPaths := fixturePaths()
	vc := cell.VCI(1)
	for _, p := range bePaths {
		if _, err := n.OpenBestEffort(vc, withHosts(p)); err != nil {
			return nil, fmt.Errorf("chaos: open BE %v: %w", p, err)
		}
		f.beVCs = append(f.beVCs, vc)
		vc++
	}
	for _, p := range gtdPaths {
		if _, err := n.OpenGuaranteed(vc, withHosts(p), 4); err != nil {
			return nil, fmt.Errorf("chaos: open gtd %v: %w", p, err)
		}
		f.gtdVCs = append(f.gtdVCs, vc)
		vc++
	}
	return f, nil
}

// events converts the outages to the injector's fault history.
func events(s Schedule) []recovery.FaultEvent {
	var evs []recovery.FaultEvent
	for _, o := range s.Outages {
		if o.End <= o.Start {
			continue
		}
		if o.Switch {
			evs = append(evs, recovery.CrashSwitch(o.Start, o.Node), recovery.RebootSwitch(o.End, o.Node))
		} else {
			evs = append(evs, recovery.CutLink(o.Start, o.Link), recovery.HealLink(o.End, o.Link))
		}
	}
	return evs
}

// burstDropAt returns the control drop probability in force at a slot:
// the baseline, raised to the largest active burst.
func burstDropAt(s Schedule, slot int64) float64 {
	drop := s.Faults.DropProb
	for _, o := range s.Outages {
		if o.Burst > drop && slot >= o.Start && slot < o.End+burstTailSlots {
			drop = o.Burst
		}
	}
	return drop
}

// Run executes the schedule and checks every invariant. A non-nil error
// means the fixture itself could not be built (a harness bug, not a
// finding); invariant failures come back in Result.Violation, with the
// run stopped at the failing slot.
func Run(s Schedule) (*Result, error) {
	return RunObserved(s, nil, nil)
}

// RunObserved is Run with observability taps: tracer receives the full
// correlated event stream (hardware faults, recovery spans, and
// chaos-burst markers bracketing each control-loss window), and reg the
// live instruments. Both may be nil; neither affects the run's outcome —
// a schedule produces the identical Result traced or not.
func RunObserved(s Schedule, tracer simnet.Tracer, reg *obs.Registry) (*Result, error) {
	f, err := build(s, tracer, reg)
	if err != nil {
		return nil, err
	}
	ctrl := s.Faults
	ctrl.Seed = s.Seed
	// The watchdog exists to catch pathologies retransmission cannot fix;
	// during a 35% burst a legitimate repair chain can exceed reconfig's
	// 15 ms default, so the harness widens it — a genuinely stuck node
	// (the dup-guard bug's orphan) waits forever and still trips it.
	hardening := s.Hardening
	if hardening.WatchdogUS == 0 {
		hardening.WatchdogUS = 30_000
	}
	f.loop, err = recovery.New(recovery.Config{
		Net:            f.net,
		SlotUS:         10,
		Skeptic:        chaosSkeptic,
		ReconfigRadius: -1,
		RetrySlots:     32,
		CtrlFaults:     &ctrl,
		CtrlHardening:  hardening,
		Obs:            reg,
	})
	if err != nil {
		return nil, err
	}
	inj := recovery.NewInjector(events(s))
	rng := rand.New(rand.NewSource(s.Seed*0x9E3779B9 + 0xB5))
	sendUntil := s.Horizon - s.Grace/2

	finish := func(v *Violation) *Result {
		return &Result{Violation: v, Stats: f.loop.Stats(), Snapshot: f.net.Snapshot()}
	}
	// settleSlots bounds the post-horizon settle phase: a fault healed
	// late in the run may legitimately finish its proving period and
	// reconfiguration round after the horizon, so quiescence gets this
	// long past the horizon before "not-quiescent" is a finding.
	const settleSlots = 6000

	// Chaos-burst markers bracket each control-loss window in the trace
	// (Seq = drop probability in permille; the closing marker carries the
	// window length in Dur).
	prevDrop := s.Faults.DropProb
	burstStart := int64(-1)

	for i := int64(0); i < s.Horizon+settleSlots; i++ {
		if i >= s.Horizon && f.loop.Quiescent() {
			break
		}
		inj.Apply(f.net)
		ctrl.DropProb = burstDropAt(s, f.net.Slot())
		if ctrl.DropProb != prevDrop {
			slot := f.net.Slot()
			ev := obs.Event{Kind: obs.KindChaosBurst, Node: -1, Link: -1,
				Seq: uint64(ctrl.DropProb * 1000)}
			if ctrl.DropProb > prevDrop {
				burstStart = slot
			} else if burstStart >= 0 {
				ev.Dur = slot - burstStart
				burstStart = -1
			}
			f.net.EmitEvent(ev)
			prevDrop = ctrl.DropProb
		}
		f.loop.Tick()
		slot := f.net.Slot()
		if slot < sendUntil {
			for _, vc := range f.beVCs {
				if rng.Float64() < 0.6 {
					if err := f.net.Send(vc, [cell.PayloadSize]byte{byte(vc), byte(slot)}); err != nil {
						return nil, err
					}
				}
			}
			if slot%4 == 0 {
				for _, vc := range f.gtdVCs {
					if err := f.net.Send(vc, [cell.PayloadSize]byte{byte(vc), byte(slot)}); err != nil {
						return nil, err
					}
				}
			}
		}
		f.net.Step()
		if v := checkSlot(s, f, slot); v != nil {
			return finish(v), nil
		}
	}
	if v := checkEnd(s, f); v != nil {
		return finish(v), nil
	}
	return finish(nil), nil
}

// checkSlot runs the every-slot invariants.
func checkSlot(s Schedule, f *fixture, slot int64) *Violation {
	snap := f.net.Snapshot()
	if !snap.Conserved() {
		return &Violation{Slot: slot, Invariant: "conservation",
			Detail: fmt.Sprintf("cells unaccounted for: %+v", snap)}
	}
	if err := f.net.CheckEngineInvariant(); err != nil {
		return &Violation{Slot: slot, Invariant: "engine-sleep", Detail: err.Error()}
	}
	for _, vc := range f.beVCs {
		w, inUse, ok := f.net.IngressWindow(vc)
		if !ok {
			continue
		}
		if inUse < 0 || inUse > w {
			return &Violation{Slot: slot, Invariant: "credit-window",
				Detail: fmt.Sprintf("vc %d: inUse=%d outside [0,%d]", vc, inUse, w)}
		}
	}
	st := f.loop.Stats()
	if st.CtrlRetriggers > s.RetriggerBudget {
		return &Violation{Slot: slot, Invariant: "watchdog-budget",
			Detail: fmt.Sprintf("%d watchdog re-triggers > budget %d — retransmission failed to repair a round", st.CtrlRetriggers, s.RetriggerBudget)}
	}
	if st.CtrlUnconverged > 0 {
		return &Violation{Slot: slot, Invariant: "unconverged",
			Detail: fmt.Sprintf("%d reconfiguration rounds missed agreement within their bound", st.CtrlUnconverged)}
	}
	return nil
}

// checkEnd runs the end-state invariants: with every fault healed and
// the grace and settle windows spent, the loop must have converged back
// to a single consistent picture — quiescent, nothing stranded, traffic
// delivered.
func checkEnd(s Schedule, f *fixture) *Violation {
	slot := f.net.Slot()
	if !f.loop.Quiescent() {
		return &Violation{Slot: slot, Invariant: "not-quiescent",
			Detail: "repair work still pending after the grace and settle windows"}
	}
	if n := f.loop.Stats().UnroutedAtEnd; n != 0 {
		return &Violation{Slot: slot, Invariant: "stranded",
			Detail: fmt.Sprintf("%d circuits still cross believed-dead elements", n)}
	}
	if f.net.Snapshot().Delivered == 0 {
		return &Violation{Slot: slot, Invariant: "no-delivery",
			Detail: "no cells delivered over the whole run"}
	}
	return nil
}
