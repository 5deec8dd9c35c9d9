package exp

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/recovery"
	"repro/internal/simnet"
	"repro/internal/switchnode"
	"repro/internal/topology"
)

// E27: the paper's "network keeps running" promise (§2), measured end to
// end for the first time in this repo. A 3×3 torus carries saturating
// mixed traffic while a recovery.Loop — skeptics feeding scoped
// reconfiguration feeding up*/down* reroutes — is the only thing allowed
// to react: the experiment injects a declared hardware fault history
// (link cut, switch crash + reboot, flapping link) and never calls
// Reroute/KillLink itself during measurement. Reported per failure
// class: detection lag, reconfiguration time, reroute time, the total
// outage window, and the cells each class cost.

func init() {
	register(&Experiment{
		ID:    "E27",
		Title: "Autonomous detect→reconfigure→reroute recovery under live traffic",
		Claim: "Monitoring, reconfiguration and rerouting together restore service around a failed component without operator action, losing only the cells in or destined for the dead element (§2)",
		Run:   runE27,
	})
}

// e27Fixture is one freshly built network + traffic + recovery loop.
type e27Fixture struct {
	net        *simnet.Network
	loop       *recovery.Loop
	victim     topology.NodeID // crash target
	victimLink topology.LinkID // cut/flap target
	beVCs      []cell.VCI
	gtdVCs     []cell.VCI
}

// e27Skeptic tunes the per-link skeptics to slot time (SlotUS=10): a
// death is believed after 3 failed pings, a recovery after 40 error-free
// slots, escalating on recurrence.
var e27Skeptic = monitor.Config{
	FailThreshold: 3,
	BaseWaitUS:    400,
	MaxWaitUS:     8_000,
	DecayUS:       20_000,
	Skeptical:     true,
}

// buildE27 constructs the fixture deterministically (no RNG in circuit
// placement; the seed feeds only the switch schedulers): the victim is
// the torus center, measured circuits terminate away from it, and enough
// of them are routed across it that every fault class forces reroutes.
func buildE27(seed int64) (*e27Fixture, error) {
	g, err := topology.Torus(3, 3, 1)
	if err != nil {
		return nil, err
	}
	if err := topology.AttachHosts(g, 2, 1); err != nil {
		return nil, err
	}
	n, err := simnet.New(simnet.Config{
		Topology:      g,
		Switch:        switchnode.Config{FrameSlots: 64, Discipline: switchnode.DisciplinePerVC, Seed: seed},
		IngressWindow: 32,
	})
	if err != nil {
		return nil, err
	}
	f := &e27Fixture{net: n, victim: 4}

	// Hosts not attached to the victim, so a victim crash strands no
	// endpoint and every circuit stays reroutable.
	var hosts []topology.NodeID
	for _, h := range g.Hosts() {
		attached := g.Neighbors(h)
		if len(attached) == 1 && attached[0] == f.victim {
			continue
		}
		hosts = append(hosts, h)
	}
	// Classify host pairs by whether their BFS path crosses the victim.
	var crossing, clear [][]topology.NodeID
	for i := 0; i < len(hosts); i++ {
		for j := i + 1; j < len(hosts); j++ {
			path := torusPath(g, hosts[i], hosts[j])
			if path == nil {
				continue
			}
			uses := false
			for _, p := range path {
				if p == f.victim {
					uses = true
					break
				}
			}
			if uses {
				crossing = append(crossing, path)
			} else {
				clear = append(clear, path)
			}
		}
	}
	if len(crossing) < 3 {
		return nil, fmt.Errorf("E27: only %d victim-crossing paths", len(crossing))
	}
	// 12 best-effort circuits — victim-crossing first — plus 2 guaranteed.
	nextVC := cell.VCI(1)
	for _, path := range append(crossing, clear...) {
		if len(f.beVCs) == 12 {
			break
		}
		if _, err := n.OpenBestEffort(nextVC, path); err != nil {
			continue
		}
		f.beVCs = append(f.beVCs, nextVC)
		nextVC++
	}
	for _, path := range crossing[len(crossing)-2:] {
		if _, err := n.OpenGuaranteed(nextVC, path, 4); err != nil {
			continue
		}
		f.gtdVCs = append(f.gtdVCs, nextVC)
		nextVC++
	}
	if len(f.beVCs) < 6 || len(f.gtdVCs) == 0 {
		return nil, fmt.Errorf("E27: opened only %d BE + %d gtd circuits", len(f.beVCs), len(f.gtdVCs))
	}
	// Victim link for the cut and flap classes: the inter-switch link most
	// used by the opened circuits (lowest LinkID on ties).
	use := make(map[topology.LinkID]int)
	for _, c := range n.Circuits() {
		for i := 0; i+1 < len(c.Path); i++ {
			if link, ok := g.LinkBetween(c.Path[i], c.Path[i+1]); ok && g.SwitchOnly(link) {
				use[link.ID]++
			}
		}
	}
	best, bestN := topology.LinkID(-1), 0
	for _, link := range g.Links() {
		if cnt := use[link.ID]; cnt > bestN || (cnt == bestN && best >= 0 && link.ID < best) {
			if cnt > 0 {
				best, bestN = link.ID, cnt
			}
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("E27: no loaded inter-switch link")
	}
	f.victimLink = best

	f.loop, err = recovery.New(recovery.Config{
		Net:            n,
		SlotUS:         10,
		Skeptic:        e27Skeptic,
		ReconfigRadius: 2, // §2's "switches near the failing component"
		RetrySlots:     32,
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// e27Class drives one failure class end to end and reports its row.
type e27Row struct {
	hwEvents  int
	believed  int
	detectLag int64
	reconfig  int64
	reroute   int64
	outage    int64
	rerouted  int64
	retries   int
	refused   int
	lost      int64
	delivered int64
}

func runE27Class(seed int64, faults []recovery.FaultEvent) (*e27Row, error) {
	f, err := buildE27(seed)
	if err != nil {
		return nil, err
	}
	inj := recovery.NewInjector(faults)
	const (
		sendUntil = 2600
		total     = 3000
	)
	for s := int64(0); s < total; s++ {
		inj.Apply(f.net)
		f.loop.Tick()
		slot := f.net.Slot()
		if slot < sendUntil {
			for _, vc := range f.beVCs {
				if err := f.net.Send(vc, [cell.PayloadSize]byte{byte(vc)}); err != nil {
					return nil, err
				}
			}
			if slot%4 == 0 {
				for _, vc := range f.gtdVCs {
					if err := f.net.Send(vc, [cell.PayloadSize]byte{byte(vc)}); err != nil {
						return nil, err
					}
				}
			}
		}
		f.net.Step()
	}
	if !inj.Done() {
		return nil, fmt.Errorf("E27: %d fault events never fired", inj.Remaining())
	}
	snap := f.net.Snapshot()
	if !snap.Conserved() {
		return nil, fmt.Errorf("E27: conservation broken: %+v", snap)
	}
	row := &e27Row{
		hwEvents:  len(faults),
		lost:      snap.Lost(),
		delivered: snap.Delivered,
	}
	st := f.loop.Stats()
	row.rerouted = st.Reroutes
	for _, inc := range f.loop.Incidents() {
		row.believed++
		if inc.Kind != "link-down" && inc.Kind != "switch-down" {
			continue
		}
		row.retries += inc.RetryPasses
		row.refused += inc.RefusedReroutes
		if lag := inc.DetectionLagSlots(); inc.HardwareSlot >= 0 && lag > row.detectLag {
			row.detectLag = lag
		}
		if inc.ReconfigSlots > row.reconfig {
			row.reconfig = inc.ReconfigSlots
		}
		out := inc.OutageSlots()
		if out < 0 {
			return nil, fmt.Errorf("E27: outage window never closed for %s incident", inc.Kind)
		}
		if out > row.outage {
			row.outage = out
		}
		if rr := inc.RepairSlot - inc.DetectSlot - inc.ReconfigSlots; rr > row.reroute {
			row.reroute = rr
		}
	}
	if !f.loop.Quiescent() {
		return nil, fmt.Errorf("E27: loop not quiescent at end of run")
	}
	return row, nil
}

func runE27(seed int64) ([]*metrics.Table, error) {
	probe, err := buildE27(seed)
	if err != nil {
		return nil, err
	}
	victim, victimLink := probe.victim, probe.victimLink
	classes := []struct {
		name   string
		faults []recovery.FaultEvent
	}{
		{"link cut", []recovery.FaultEvent{recovery.CutLink(500, victimLink)}},
		{"switch crash + reboot", []recovery.FaultEvent{
			recovery.CrashSwitch(500, victim),
			recovery.RebootSwitch(2000, victim),
		}},
		{"flapping link (5 cycles)", recovery.Flap(victimLink, 500, 25, 5)},
	}
	t := metrics.NewTable(
		"E27 — autonomous recovery on a 3×3 torus, 12 BE + 2 gtd circuits, saturating sources, all repair driven by the loop (slots)",
		"failure class", "hw events", "believed", "detect-lag", "reconfig", "reroute", "outage", "rerouted", "retries", "refused", "cells lost", "delivered")
	for _, cl := range classes {
		row, err := runE27Class(seed, cl.faults)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cl.name, err)
		}
		t.AddRow(cl.name, row.hwEvents, row.believed, row.detectLag, row.reconfig,
			row.reroute, row.outage, row.rerouted, row.retries, row.refused, row.lost, row.delivered)
	}
	return []*metrics.Table{t}, nil
}
