package exp

import (
	"fmt"
	"time"

	"repro/internal/cell"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/switchnode"
	"repro/internal/topology"
)

// E31: what a slot costs. simnet steps only non-quiescent switches and
// settles sleeping clocks lazily, so the per-slot cost should track the
// *active* switch count, not the topology's size. Table 1 times CBR
// workloads on a line, a torus and a 720-switch fat-tree at very different
// active fractions and reports, next to slots/sec, the measured share of
// switch-slots that ran a full Step and the host time per stepped switch
// (a Step costs what is queued, not its crossbar's port count: 16 on the
// line and the torus, 24 on the fat-tree) — which stays near 0.1 µs from 24
// switches to 720. (The flat sweep this engine replaced is gone; the
// 5.3–6.9× flat-vs-wake speedup was measured once, while both existed.)

func init() {
	register(&Experiment{
		ID:    "E31",
		Title: "A slot costs what its awake switches cost",
		Claim: "Stepping only non-quiescent switches makes the per-slot cost O(active), not O(fabric): the stepped share of switch-slots equals the active fraction and host time per stepped switch stays near 0.1 µs from a 24-switch line to a 720-switch fat-tree at <1% activity",
		Run:   runE31,
		Quick: true,
	})
}

// speedNet is one built workload: the network, how many of its switches
// lie on a circuit path, and how many it has.
type speedNet struct {
	n      *simnet.Network
	active int
	total  int
}

// Every E31 fabric has speedFrame-slot frames and runs speedWarm warm-up
// slots, then speedReps timed repeats of speedTimed slots.
const (
	speedFrame = 16
	speedWarm  = 64
	speedReps  = 3
	speedTimed = 4000
)

// cbrPair opens a guaranteed circuit over path, queues at its source one
// single-cell packet for every pacing slot of the run — a constant-bit-rate
// source: rate matching releases them one per interval — and tracks the
// circuit's interior switches in activeSet.
func cbrPair(n *simnet.Network, vc cell.VCI, path []topology.NodeID, cpf int, activeSet map[topology.NodeID]bool) error {
	if _, err := n.OpenGuaranteed(vc, path, cpf); err != nil {
		return err
	}
	var pkt [40]byte // 40 + 8-byte trailer = one 48-byte payload
	for i := range pkt {
		pkt[i] = byte(vc)
	}
	for k := 0; k <= (speedWarm+speedReps*speedTimed)*cpf/speedFrame; k++ {
		if err := n.SendPacket(vc, pkt[:]); err != nil {
			return err
		}
	}
	for _, s := range path[1 : len(path)-1] {
		activeSet[s] = true
	}
	return nil
}

// buildLine: every switch of a 24-switch line is on the circuit path —
// the 100%-active case, where nothing sleeps.
func buildLine(seed int64) (*speedNet, error) {
	g, err := topology.Line(24, 1)
	if err != nil {
		return nil, err
	}
	h0 := g.AddHost("h0")
	h1 := g.AddHost("h1")
	if _, err := g.Connect(h0, 0, 1); err != nil {
		return nil, err
	}
	if _, err := g.Connect(h1, topology.NodeID(23), 1); err != nil {
		return nil, err
	}
	n, err := simnet.New(simnet.Config{
		Topology: g,
		Switch:   switchnode.Config{Discipline: switchnode.DisciplinePerVC, FrameSlots: speedFrame, Seed: seed},
	})
	if err != nil {
		return nil, err
	}
	path := []topology.NodeID{h0}
	for i := 0; i < 24; i++ {
		path = append(path, topology.NodeID(i))
	}
	path = append(path, h1)
	active := map[topology.NodeID]bool{}
	if err := cbrPair(n, 10, path, 4, active); err != nil {
		return nil, err
	}
	return &speedNet{n: n, active: len(active), total: 24}, nil
}

// buildTorus: a 12x12 torus (144 switches) with one short CBR circuit in
// a corner — a low-activity regular fabric.
func buildTorus(seed int64) (*speedNet, error) {
	g, err := topology.Torus(12, 12, 1)
	if err != nil {
		return nil, err
	}
	h0 := g.AddHost("h0")
	h1 := g.AddHost("h1")
	if _, err := g.Connect(h0, 0, 1); err != nil {
		return nil, err
	}
	if _, err := g.Connect(h1, topology.NodeID(3), 1); err != nil {
		return nil, err
	}
	n, err := simnet.New(simnet.Config{
		Topology: g,
		Switch:   switchnode.Config{Discipline: switchnode.DisciplinePerVC, FrameSlots: speedFrame, Seed: seed},
	})
	if err != nil {
		return nil, err
	}
	router, err := routing.NewRouter(g, 0, nil)
	if err != nil {
		return nil, err
	}
	path, err := router.ShortestLegal(h0, h1)
	if err != nil {
		return nil, err
	}
	active := map[topology.NodeID]bool{}
	if err := cbrPair(n, 10, path, 4, active); err != nil {
		return nil, err
	}
	return &speedNet{n: n, active: len(active), total: 144}, nil
}

// buildFatTree: a fat-tree with CBR circuits confined to pods 0 and 1 —
// one intra-pod, one cross-pod — leaving the rest of the fabric
// quiescent. radix 24 with default dimensioning yields the 720-switch
// fabric of the headline claim.
func buildFatTree(seed int64, radix, pods int) (*speedNet, error) {
	n, err := fabric.NewNet(fabric.NetConfig{
		Fabric: topology.FatTreeConfig{Radix: radix, Pods: pods},
		Switch: switchnode.Config{FrameSlots: speedFrame, Discipline: switchnode.DisciplinePerVC, Seed: seed},
	})
	if err != nil {
		return nil, err
	}
	router, err := n.Router(nil)
	if err != nil {
		return nil, err
	}
	h := func(pod, i int) topology.NodeID { return n.Info.Hosts[pod][i] }
	active := map[topology.NodeID]bool{}
	for i, pr := range [][2]topology.NodeID{
		{h(0, 0), h(0, 1)}, // intra-pod
		{h(0, 2), h(1, 0)}, // cross-pod, through one spine
	} {
		path, err := router.ShortestLegal(pr[0], pr[1])
		if err != nil {
			return nil, err
		}
		if err := cbrPair(n.Sim, cell.VCI(10+i), path, 4, active); err != nil {
			return nil, err
		}
	}
	return &speedNet{n: n.Sim, active: len(active), total: len(n.G.Switches())}, nil
}

// timeRun advances the net timedSlots slots reps times and returns the
// best slots/sec (minimum wall time wins — the least-disturbed repeat).
func timeRun(n *simnet.Network, timedSlots int64, reps int) float64 {
	best := time.Duration(1<<62 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		n.Run(timedSlots)
		if d := time.Since(start); d < best {
			best = d
		}
	}
	if best <= 0 {
		best = time.Nanosecond
	}
	return float64(timedSlots) / best.Seconds()
}

// runSpeedCase warms the network, times it over the slot span, and
// reports the share of switch-slots that ran a full Step (from
// NetStats.IdleStepsSkipped over the timed span) beside the rate.
func runSpeedCase(t *metrics.Table, name string, build func() (*speedNet, error)) error {
	const warm, reps, timedSlots = speedWarm, speedReps, int64(speedTimed)
	sn, err := build()
	if err != nil {
		return err
	}
	sn.n.Run(warm)
	idle0 := sn.n.Stats().IdleStepsSkipped
	rate := timeRun(sn.n, timedSlots, reps)
	ReportSlots(warm + timedSlots*reps)

	switchSlots := float64(int64(sn.total) * timedSlots * reps)
	stepped := 1 - float64(sn.n.Stats().IdleStepsSkipped-idle0)/switchSlots
	sw, _ := sn.n.Switch(0) // node 0 is a switch, as wide as every other, in each fabric
	t.AddRow(name, sn.total, sw.N(),
		fmt.Sprintf("%.1f%%", 100*float64(sn.active)/float64(sn.total)),
		fmt.Sprintf("%.1f%%", 100*stepped),
		fmt.Sprintf("%.3g", rate),
		fmt.Sprintf("%.0f", 1e9/rate/(stepped*float64(sn.total))))
	return nil
}

func runE31(seed int64) ([]*metrics.Table, error) {
	t1 := metrics.NewTable(
		"E31a — per-slot cost tracks the active switches, CBR workloads, best of 3 timed runs",
		"topology", "switches", "ports", "on a circuit", "switch-slots stepped", "slots/s", "ns/stepped switch")
	for _, c := range []struct {
		name  string
		build func() (*speedNet, error)
	}{
		{"line-24 (all active)", func() (*speedNet, error) { return buildLine(seed) }},
		{"torus-12x12", func() (*speedNet, error) { return buildTorus(seed) }},
		{"fat-tree r24/p24", func() (*speedNet, error) { return buildFatTree(seed, 24, 24) }},
	} {
		if err := runSpeedCase(t1, c.name, c.build); err != nil {
			return nil, err
		}
	}
	return []*metrics.Table{t1}, nil
}
