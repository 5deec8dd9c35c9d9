package exp

import (
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/recovery"
	"repro/internal/simnet"
	"repro/internal/switchnode"
	"repro/internal/topology"
)

// E22: the end-to-end fault-management loop (§2): ping-based monitoring
// feeds the skeptic, believed transitions trigger distributed
// reconfigurations, and the network's view tracks the hardware truth. It
// runs on the same recovery.Loop that protects live traffic in E27 —
// here over an idle ring, one slot per 1 ms ping period, so 30 s of link
// life is 30 000 slots.

func init() {
	register(&Experiment{
		ID:    "E22",
		Title: "the fault-management loop: monitor → skeptic → reconfigure",
		Claim: "switch software monitors the links by regularly pinging each neighbor... if this test fails too frequently, a working link is changed to the dead state; each transition triggers a reconfiguration (§2, composite)",
		Run:   runE22,
	})
}

const (
	e22SlotUS = 1000   // one slot = one ping period
	e22Slots  = 30_000 // 30 s
)

// e22Faults is the 30-second link life: a clean cut on link 0 at t=2 s
// (repaired at t=20 s), and link 3 flapping — 50 ms down every 350 ms —
// from t=5 s to t=15 s, then healthy.
func e22Faults() []recovery.FaultEvent {
	faults := []recovery.FaultEvent{
		recovery.CutLink(2_000, 0),
		recovery.HealLink(20_000, 0),
	}
	for at := int64(5_000); at < 15_000; at += 350 {
		faults = append(faults, recovery.CutLink(at, 3), recovery.HealLink(at+50, 3))
	}
	return faults
}

// e22Skeptic is the per-link monitor; only Skeptical differs between the
// two rows.
func e22Skeptic(skeptical bool) monitor.Config {
	return monitor.Config{
		FailThreshold: 3,
		BaseWaitUS:    10_000,
		DecayUS:       600_000_000,
		Skeptical:     skeptical,
	}
}

func runE22(seed int64) ([]*metrics.Table, error) {
	g, err := topology.Ring(8, 1)
	if err != nil {
		return nil, err
	}
	faults, links := e22Faults(), g.Links()
	t := metrics.NewTable("E22 — 30 s of link life on an 8-switch ring (one cut + one flapper)",
		"monitor policy", "reconfigs", "total-reconfig-us", "view-currency", "detect-lag-us", "note")
	// View currency compares the believed state with the instantaneous
	// hardware state. The skeptic scores LOWER on it by design: during
	// the flapping window it holds the link dead through its brief good
	// moments — that divergence is the feature, not a defect, because
	// each "currency-improving" flip would cost a network-wide
	// reconfiguration.
	for _, cse := range []struct {
		name, note string
		skeptical  bool
	}{
		{"naive (fixed proving)", "chases every flap", false},
		{"skeptic (escalating)", "holds flaky link down (intended)", true},
	} {
		n, err := simnet.New(simnet.Config{Topology: g, Switch: switchnode.Config{Seed: seed}})
		if err != nil {
			return nil, err
		}
		loop, err := recovery.New(recovery.Config{
			Net: n, SlotUS: e22SlotUS, Skeptic: e22Skeptic(cse.skeptical), ReconfigRadius: -1,
		})
		if err != nil {
			return nil, err
		}
		inj := recovery.NewInjector(faults)
		current := 0
		for n.Slot() < e22Slots {
			inj.Apply(n)
			loop.Tick()
			if viewCurrent(n, loop, links) {
				current++
			}
			n.Step()
		}
		var lagSlots, lagN int64
		for _, inc := range loop.Incidents() {
			if inc.HardwareSlot >= 0 {
				lagSlots += inc.DetectionLagSlots()
				lagN++
			}
		}
		st := loop.Stats()
		t.AddRow(cse.name, st.ReconfigRounds, st.ReconfigUS,
			float64(current)/e22Slots, float64(lagSlots*e22SlotUS)/float64(max(lagN, 1)), cse.note)
	}
	return []*metrics.Table{t}, nil
}

// viewCurrent reports whether the loop's belief matches the hardware's
// answer on every link.
func viewCurrent(n *simnet.Network, loop *recovery.Loop, links []topology.Link) bool {
	for _, l := range links {
		if loop.BelievesLinkDead(l.ID) == n.ProbeLink(l.ID) {
			return false
		}
	}
	return true
}
