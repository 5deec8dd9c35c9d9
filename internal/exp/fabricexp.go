package exp

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/ctrlnet"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/recovery"
	"repro/internal/switchnode"
	"repro/internal/topology"
)

// E30: the §2 scoping argument at datacenter scale. The same leaf-switch
// crash is recovered on radix-8 fat-trees of growing pod count, once with
// hierarchical scoping (fabric.Partition: the round involves only the
// victim's pod) and once with global rounds. The workload is pinned to
// pods 0-1 in every fabric, so the only variable is fabric size: scoped
// cost — messages, participants, convergence — must stay flat (O(pod))
// while global cost grows with the fabric, and the spine epoch must never
// move for an intra-pod fault. The idle-skipped column is the simulator's
// matching win: the switches of quiescent pods sleep and are never
// stepped.

func init() {
	register(&Experiment{
		ID:    "E30",
		Title: "Hierarchical recovery scales O(pod), not O(fabric)",
		Claim: "Restricting reconfiguration participation to the failing component's locality (§2) keeps recovery cost constant as the fabric grows; only faults touching the spine layer pay fabric-wide cost",
		Run:   runE30,
		Quick: true,
	})
}

// e30Skeptic tunes detection to slot time (SlotUS=10).
var e30Skeptic = monitor.Config{
	FailThreshold: 3,
	BaseWaitUS:    400,
	MaxWaitUS:     8_000,
	DecayUS:       20_000,
	Skeptical:     true,
}

type e30Row struct {
	switches   int
	region     int
	rounds     int64
	spine      int64
	msgs       int64
	convUS     int64
	outage     int64
	idleSkips  int64
	unroutable int
}

// runE30One recovers one leaf crash on a radix-8 fat-tree with the given
// pod count, hierarchically scoped or global.
func runE30One(seed int64, pods int, hier bool) (*e30Row, error) {
	n, err := fabric.NewNet(fabric.NetConfig{
		Fabric:        topology.FatTreeConfig{Radix: 8, Pods: pods, HostsPerEdge: 1},
		Switch:        switchnode.Config{FrameSlots: 32, Discipline: switchnode.DisciplinePerVC, Seed: seed},
		IngressWindow: 16,
	})
	if err != nil {
		return nil, err
	}
	router, err := n.Router(nil)
	if err != nil {
		return nil, err
	}
	// Fixed workload in pods 0-1 regardless of fabric size; the victim
	// leaf p0e0 carries none of it, so its crash forces no reroutes and
	// the measured cost is pure control plane.
	h := func(pod, i int) topology.NodeID { return n.Info.Hosts[pod][i] }
	pairs := [][2]topology.NodeID{
		{h(0, 1), h(1, 0)},
		{h(1, 0), h(0, 2)},
		{h(1, 1), h(1, 2)},
	}
	var vcs []cell.VCI
	for i, pr := range pairs {
		path, err := router.ShortestLegal(pr[0], pr[1])
		if err != nil {
			return nil, err
		}
		vc := cell.VCI(i + 1)
		if _, err := n.Sim.OpenBestEffort(vc, path); err != nil {
			return nil, err
		}
		vcs = append(vcs, vc)
	}
	cfg := recovery.Config{
		Net:        n.Sim,
		SlotUS:     10,
		Skeptic:    e30Skeptic,
		CtrlFaults: &ctrlnet.Config{Seed: seed},
		RetrySlots: 32,
		Root:       n.Info.Root,
	}
	if hier {
		cfg.Scoper = n.Part
	} else {
		cfg.ReconfigRadius = -1 // global rounds
	}
	loop, err := recovery.New(cfg)
	if err != nil {
		return nil, err
	}
	victim := n.Info.Edges[0][0]
	inj := recovery.NewInjector([]recovery.FaultEvent{recovery.CrashSwitch(100, victim)})
	for s := int64(0); s < 400; s++ {
		inj.Apply(n.Sim)
		loop.Tick()
		if s < 350 {
			for _, vc := range vcs {
				if err := n.Sim.Send(vc, [cell.PayloadSize]byte{byte(vc), byte(s)}); err != nil {
					return nil, err
				}
			}
		}
		n.Sim.Step()
	}
	if !inj.Done() {
		return nil, fmt.Errorf("E30: fault never fired")
	}
	if snap := n.Sim.Snapshot(); !snap.Conserved() {
		return nil, fmt.Errorf("E30: conservation broken: %+v", snap)
	}
	if !loop.Quiescent() {
		return nil, fmt.Errorf("E30: loop not quiescent (pods=%d hier=%v)", pods, hier)
	}
	st := loop.Stats()
	row := &e30Row{
		switches:   len(n.G.Switches()),
		region:     len(n.G.Switches()), // global participation
		rounds:     st.ReconfigRounds,
		spine:      st.SpineRounds,
		msgs:       st.ReconfigMsgs,
		convUS:     st.MaxReconfigUS,
		idleSkips:  n.Sim.Stats().IdleStepsSkipped,
		unroutable: st.UnroutedAtEnd,
	}
	if hier {
		region, _ := n.Part.Scope([]topology.NodeID{n.Info.Aggs[0][0]})
		row.region = len(region) // one pod
	}
	for _, inc := range loop.Incidents() {
		if out := inc.OutageSlots(); out > row.outage {
			row.outage = out
		}
	}
	return row, nil
}

func runE30(seed int64) ([]*metrics.Table, error) {
	t := metrics.NewTable(
		"E30 — leaf crash on radix-8 fat-trees, identical pods-0/1 workload; hierarchical (pod-scoped) vs global rounds",
		"pods", "switches", "region", "rounds", "spine rounds",
		"msgs scoped", "msgs global", "conv scoped (µs)", "conv global (µs)",
		"outage (slots)", "idle-skipped")
	for _, pods := range []int{2, 4, 6, 8} {
		hr, err := runE30One(seed, pods, true)
		if err != nil {
			return nil, err
		}
		gr, err := runE30One(seed, pods, false)
		if err != nil {
			return nil, err
		}
		if hr.spine != 0 {
			return nil, fmt.Errorf("E30: intra-pod fault escalated to the spine (%d rounds, pods=%d)", hr.spine, pods)
		}
		if hr.unroutable != 0 || gr.unroutable != 0 {
			return nil, fmt.Errorf("E30: circuits left unrouted (pods=%d)", pods)
		}
		t.AddRow(pods, hr.switches, hr.region, hr.rounds, hr.spine,
			hr.msgs, gr.msgs, hr.convUS, gr.convUS, hr.outage, hr.idleSkips)
	}
	return []*metrics.Table{t}, nil
}
