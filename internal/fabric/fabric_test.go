package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/ctrlnet"
	"repro/internal/monitor"
	"repro/internal/reconfig"
	"repro/internal/recovery"
	"repro/internal/simnet"
	"repro/internal/switchnode"
	"repro/internal/topology"
)

// fabricSkeptic tunes per-link skeptics to slot time (SlotUS=10): believe
// a death after 3 failed pings, a recovery after 40 clean slots.
var fabricSkeptic = monitor.Config{
	FailThreshold: 3,
	BaseWaitUS:    400,
	MaxWaitUS:     8_000,
	DecayUS:       20_000,
	Skeptical:     true,
}

func TestPartitionFromLabels(t *testing.T) {
	g, info, err := topology.FatTree(topology.FatTreeConfig{Radix: 8, Pods: 4, HostsPerEdge: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPartition(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.pods) != 4 {
		t.Fatalf("%d pods, want 4", len(p.pods))
	}
	for pd := 0; pd < 4; pd++ {
		want := append(append([]topology.NodeID{}, info.Edges[pd]...), info.Aggs[pd]...)
		if !reflect.DeepEqual(p.Pod(pd), want) {
			t.Fatalf("pod %d = %v, want %v", pd, p.Pod(pd), want)
		}
	}
	if !reflect.DeepEqual(p.Spines(), info.Spines) {
		t.Fatalf("spines = %v, want %v", p.Spines(), info.Spines)
	}
	if got := p.podOf[info.Edges[2][1]]; got != 2 {
		t.Fatalf("edge in pod 2 labelled pod %d", got)
	}
	if _, inPod := p.podOf[info.Spines[3]]; !p.spine[info.Spines[3]] || inPod {
		t.Fatal("spine misclassified")
	}
	// Unlabeled graphs are rejected.
	plain, _ := topology.Torus(3, 3, 1)
	if _, err := NewPartition(plain); err == nil {
		t.Fatal("NewPartition accepted an unlabeled graph")
	}
}

func TestScopeRule(t *testing.T) {
	g, info, err := topology.FatTree(topology.FatTreeConfig{Radix: 8, Pods: 4, NoHosts: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPartition(g)
	if err != nil {
		t.Fatal(err)
	}
	// Leaf death: triggers are the pod's aggs — pod-local.
	region, spine := p.Scope(info.Aggs[1])
	if spine {
		t.Fatal("intra-pod triggers escalated")
	}
	if !reflect.DeepEqual(region, p.Pod(1)) {
		t.Fatalf("pod-local region = %v, want pod 1", region)
	}
	// Agg-spine link: one trigger is a spine — escalate to pod + spines.
	region, spine = p.Scope([]topology.NodeID{info.Aggs[2][0], info.Spines[0]})
	if !spine {
		t.Fatal("spine trigger did not escalate")
	}
	want := append(append([]topology.NodeID{}, p.Pod(2)...), p.Spines()...)
	if !reflect.DeepEqual(region, want) {
		t.Fatalf("escalated region = %v, want pod 2 + spines", region)
	}
	// Triggers spanning two pods escalate even with no spine trigger.
	_, spine = p.Scope([]topology.NodeID{info.Edges[0][0], info.Edges[3][0]})
	if !spine {
		t.Fatal("cross-pod triggers did not escalate")
	}
	// Spine-only triggers fall back to a global round.
	region, spine = p.Scope([]topology.NodeID{info.Spines[1]})
	if !spine || len(region) != len(g.Switches()) {
		t.Fatalf("spine-only scope: spine=%v, |region|=%d, want all %d", spine, len(region), len(g.Switches()))
	}
}

// TestScopedRoundSize runs the protocol directly over the regions Scope
// picks: a leaf death is a pod-sized round — O(pod) participants, not
// O(fabric) — and an agg–spine cut escalates to the touched pod plus the
// spines. (The pod/spine round tally of a whole recovery is asserted
// through recovery.Stats in the leaf-kill and inter-pod scenarios below.)
func TestScopedRoundSize(t *testing.T) {
	g, info, err := topology.FatTree(topology.FatTreeConfig{Radix: 8, Pods: 4, NoHosts: true})
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewPartition(g)
	if err != nil {
		t.Fatal(err)
	}
	victim := info.Edges[0][0]
	link, ok := g.LinkBetween(info.Aggs[1][0], info.Spines[0])
	if !ok {
		t.Fatal("no agg-spine link where expected")
	}
	for _, c := range []struct {
		name      string
		deadLinks map[topology.LinkID]bool
		triggers  []topology.NodeID
		spine     bool
		views     int
	}{
		// Edge switch p0e0 dies: pod 0's aggs notice.
		{"leaf death", nil, info.Aggs[0], false, len(part.Pod(0)) - 1},
		// Agg-spine link cut with the leaf still dead: pod 1 + every spine.
		{"agg-spine cut", map[topology.LinkID]bool{link.ID: true},
			[]topology.NodeID{info.Aggs[1][0], info.Spines[0]}, true, len(part.Pod(1)) + len(part.Spines())},
	} {
		runner, err := reconfig.New(reconfig.Config{
			Topology: g, DeadLinks: c.deadLinks, DeadNodes: map[topology.NodeID]bool{victim: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		picked, spine := part.Scope(c.triggers)
		region := make(reconfig.Region, len(picked))
		for _, s := range picked {
			if s != victim {
				region[s] = true
			}
		}
		var triggers []reconfig.Trigger
		for _, n := range c.triggers {
			triggers = append(triggers, reconfig.Trigger{Node: n})
		}
		chn, err := ctrlnet.New(ctrlnet.Config{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		ur, err := runner.RunOver(triggers, region, chn, reconfig.Hardening{})
		if err != nil {
			t.Fatal(err)
		}
		if spine != c.spine || !ur.Converged {
			t.Fatalf("%s: spine=%v converged=%v, want spine=%v converged", c.name, spine, ur.Converged, c.spine)
		}
		if len(ur.Views) != c.views {
			t.Fatalf("%s: round had %d participants, want %d", c.name, len(ur.Views), c.views)
		}
	}
}

// fabricRun is everything observable from one recovered-fabric scenario.
type fabricRun struct {
	events    []simnet.TraceEvent
	net       simnet.NetStats
	loop      recovery.Stats
	incidents []recovery.Incident
}

// runLeafKillScenario boots a radix-8 / 4-pod fabric with cross-pod
// traffic avoiding the victim leaf, hands fault handling to a
// recovery.Loop in hierarchical mode (Scoper = the pod partition, rounds
// on the deterministic event-driven channel), crashes edge p0e0 at slot
// 100, and runs 200 more slots.
func runLeafKillScenario(t *testing.T) fabricRun {
	t.Helper()
	// NewNet, with a tracer on the network.
	g, info, err := topology.FatTree(topology.FatTreeConfig{Radix: 8, Pods: 4, HostsPerEdge: 1})
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewPartition(g)
	if err != nil {
		t.Fatal(err)
	}
	tracer := &simnet.CollectTracer{}
	sim, err := simnet.New(simnet.Config{
		Topology:      g,
		Switch:        switchnode.Config{FrameSlots: 32, Discipline: switchnode.DisciplinePerVC, Seed: 5},
		IngressWindow: 16,
		Tracer:        tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := &Net{G: g, Info: info, Part: part, Sim: sim}
	router, err := n.Router(nil)
	if err != nil {
		t.Fatal(err)
	}
	h := func(pod, i int) topology.NodeID { return n.Info.Hosts[pod][i] }
	victim := n.Info.Edges[0][0] // strands only h(0,0), which carries nothing
	pairs := [][2]topology.NodeID{
		{h(0, 1), h(1, 0)},
		{h(1, 0), h(2, 0)},
		{h(2, 0), h(3, 0)},
		{h(3, 0), h(0, 2)},
		{h(1, 1), h(1, 2)}, // intra-pod control group
	}
	var vcs []cell.VCI
	for i, pr := range pairs {
		path, err := router.ShortestLegal(pr[0], pr[1])
		if err != nil {
			t.Fatal(err)
		}
		vc := cell.VCI(i + 1)
		if _, err := n.Sim.OpenBestEffort(vc, path); err != nil {
			t.Fatal(err)
		}
		vcs = append(vcs, vc)
	}
	loop, err := recovery.New(recovery.Config{
		Net:        n.Sim,
		SlotUS:     10,
		Skeptic:    fabricSkeptic,
		Scoper:     n.Part,
		CtrlFaults: &ctrlnet.Config{Seed: 21},
		RetrySlots: 32,
		Root:       n.Info.Root,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj := recovery.NewInjector([]recovery.FaultEvent{recovery.CrashSwitch(100, victim)})
	for s := int64(0); s < 300; s++ {
		inj.Apply(n.Sim)
		loop.Tick()
		if s < 260 {
			for _, vc := range vcs {
				if err := n.Sim.Send(vc, [cell.PayloadSize]byte{byte(vc), byte(s)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		n.Sim.Step()
	}
	if !inj.Done() {
		t.Fatal("fault never fired")
	}
	if snap := n.Sim.Snapshot(); !snap.Conserved() {
		t.Fatalf("conservation broken: %+v", snap)
	}
	return fabricRun{
		events:    tracer.Events,
		net:       n.Sim.Stats(),
		loop:      loop.Stats(),
		incidents: loop.Incidents(),
	}
}

// TestFabricLeafKillScopedRecovery is the CI fabric-smoke scenario: a leaf
// death on a radix-8/4-pod fabric converges through pod-scoped rounds
// only — the spine epoch never bumps — and the repair completes.
func TestFabricLeafKillScopedRecovery(t *testing.T) {
	run := runLeafKillScenario(t)
	if run.loop.ReconfigRounds == 0 {
		t.Fatal("no reconfiguration rounds ran")
	}
	if run.loop.SpineRounds != 0 {
		t.Fatalf("leaf death escalated: %d spine rounds", run.loop.SpineRounds)
	}
	if run.loop.PodRounds != run.loop.ReconfigRounds {
		t.Fatalf("round tally inconsistent: %+v", run.loop)
	}
	if run.loop.CtrlUnconverged != 0 {
		t.Fatalf("%d rounds missed agreement", run.loop.CtrlUnconverged)
	}
	if len(run.incidents) == 0 {
		t.Fatal("no incidents recorded")
	}
	for _, inc := range run.incidents {
		if inc.OutageSlots() < 0 {
			t.Fatalf("outage never closed for %s incident", inc.Kind)
		}
	}
}

// TestFabricEscalatesOnInterPodFault: cutting an agg-spine link must
// escalate — at least one spine round, spine epoch moves.
func TestFabricEscalatesOnInterPodFault(t *testing.T) {
	n, err := NewNet(NetConfig{
		Fabric: topology.FatTreeConfig{Radix: 8, Pods: 4, HostsPerEdge: 1},
		Switch: switchnode.Config{FrameSlots: 32, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	link, ok := n.G.LinkBetween(n.Info.Aggs[1][0], n.Info.Spines[0])
	if !ok {
		t.Fatal("no agg-spine link where expected")
	}
	if n.Part.spine[link.A] == n.Part.spine[link.B] {
		t.Fatal("agg-spine link not classified inter-pod")
	}
	loop, err := recovery.New(recovery.Config{
		Net:        n.Sim,
		SlotUS:     10,
		Skeptic:    fabricSkeptic,
		Scoper:     n.Part,
		CtrlFaults: &ctrlnet.Config{Seed: 7},
		Root:       n.Info.Root,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj := recovery.NewInjector([]recovery.FaultEvent{recovery.CutLink(50, link.ID)})
	for s := int64(0); s < 200; s++ {
		inj.Apply(n.Sim)
		loop.Tick()
		n.Sim.Step()
	}
	st := loop.Stats()
	if st.SpineRounds == 0 {
		t.Fatalf("inter-pod fault never escalated: %+v", st)
	}
	if st.PodRounds != 0 {
		t.Fatalf("inter-pod fault tallied pod-local rounds: %+v", st)
	}
}

// hash digests the run in trace order: every event, the network counters,
// the loop's tallies and the incident timeline.
func (r fabricRun) hash() string {
	h := sha256.New()
	for _, ev := range r.events {
		fmt.Fprintf(h, "%+v\n", ev)
	}
	// The golden predates Stats.ReconfigUS; leave that one field out of the
	// digest (every round's convergence time is already in it, as the Seq
	// of the reconfig trace events above).
	loop := strings.Replace(fmt.Sprintf("%+v", r.loop), fmt.Sprintf(" ReconfigUS:%d", r.loop.ReconfigUS), "", 1)
	fmt.Fprintf(h, "net %+v\nloop %s\n", r.net, loop)
	for _, inc := range r.incidents {
		fmt.Fprintf(h, "%+v\n", inc)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TestFabricRecoveryDeterministic pins the whole hierarchical stack —
// fat-tree + stepping + recovery loop + scoped rounds — to the history the
// flat engine produced: the golden hash was captured at parent commit
// 1681f3a (PR 12) from this scenario on the flat, pod-sharded engine
// (event-driven stepping off, step groups = pods + spines, one worker via
// GOMAXPROCS=1), where the old form of this test had pinned 1 and 4
// workers byte-identical. A repeat must replay exactly.
func TestFabricRecoveryDeterministic(t *testing.T) {
	const golden = "8716fe09d9a318e55587c44776d98895"
	base := runLeafKillScenario(t)
	if h := base.hash(); h != golden {
		t.Fatalf("history hash %s, golden %s (%d events, %+v)", h, golden, len(base.events), base.net)
	}
	again := runLeafKillScenario(t)
	if !reflect.DeepEqual(base, again) {
		t.Fatal("same-seed repeat diverged")
	}
}

// TestLargeFabricStepsUnderSaturation: the acceptance-scale check. A full
// radix-24 1:1 fat-tree (720 switches, 3456 hosts) builds, validates,
// and steps under saturating cross-pod traffic with conservation intact.
func TestLargeFabricStepsUnderSaturation(t *testing.T) {
	n, err := NewNet(NetConfig{
		Fabric:        topology.FatTreeConfig{Radix: 24, Pods: 24},
		Switch:        switchnode.Config{FrameSlots: 32, Seed: 3},
		IngressWindow: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(n.G.Switches()); got != 720 {
		t.Fatalf("radix-24 fat-tree has %d switches, want 720", got)
	}
	if err := n.Info.Validate(n.G); err != nil {
		t.Fatal(err)
	}
	router, err := n.Router(nil)
	if err != nil {
		t.Fatal(err)
	}
	// 48 cross-pod circuits, sources saturating every slot.
	var vcs []cell.VCI
	for i := 0; i < 48; i++ {
		src := n.Info.Hosts[i%24][i]
		dst := n.Info.Hosts[(i+7)%24][(i*3+1)%len(n.Info.Hosts[0])]
		path, err := router.ShortestLegal(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		vc := cell.VCI(i + 1)
		if _, err := n.Sim.OpenBestEffort(vc, path); err != nil {
			t.Fatal(err)
		}
		vcs = append(vcs, vc)
	}
	for s := 0; s < 48; s++ {
		for _, vc := range vcs {
			if err := n.Sim.Send(vc, [cell.PayloadSize]byte{byte(vc)}); err != nil {
				t.Fatal(err)
			}
		}
		n.Sim.Step()
	}
	n.Sim.Run(64)
	snap := n.Sim.Snapshot()
	if !snap.Conserved() {
		t.Fatalf("conservation broken: %+v", snap)
	}
	if snap.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if n.Sim.Stats().IdleStepsSkipped == 0 {
		t.Fatal("no idle pods skipped despite partial load")
	}
}

// BenchmarkFatTreeStep measures one simulated slot on a radix-8/8-pod
// fabric (80 switches) with 8 active cross-pod circuits — the number CI
// tracks as the fabric's per-slot cost.
func BenchmarkFatTreeStep(b *testing.B) {
	n, err := NewNet(NetConfig{
		Fabric:        topology.FatTreeConfig{Radix: 8, Pods: 8, HostsPerEdge: 1},
		Switch:        switchnode.Config{FrameSlots: 32, Seed: 9},
		IngressWindow: 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	router, err := n.Router(nil)
	if err != nil {
		b.Fatal(err)
	}
	var vcs []cell.VCI
	for i := 0; i < 8; i++ {
		src := n.Info.Hosts[i][0]
		dst := n.Info.Hosts[(i+3)%8][1%len(n.Info.Hosts[0])]
		path, err := router.ShortestLegal(src, dst)
		if err != nil {
			b.Fatal(err)
		}
		vc := cell.VCI(i + 1)
		if _, err := n.Sim.OpenBestEffort(vc, path); err != nil {
			b.Fatal(err)
		}
		vcs = append(vcs, vc)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vc := vcs[i%len(vcs)]
		if err := n.Sim.Send(vc, [cell.PayloadSize]byte{byte(vc)}); err != nil {
			b.Fatal(err)
		}
		n.Sim.Step()
	}
}
