// Package fabric is the datacenter-scale composition layer: it ties the
// fat-tree generator (topology.FatTree), the simulator (simnet, whose
// wake-set engine makes idle pods free) and hierarchical reconfiguration
// (a recovery.Loop scoping its rounds by the pod/spine Partition) into one
// subsystem. The organizing idea is the paper's §2 scoping
// argument taken to datacenter size: a fault whose triggers stay inside
// one pod involves only that pod's switches — O(pod), not O(fabric) — and
// only faults touching the spine layer (inter-pod links, spine switches,
// multi-pod trigger sets) escalate to a fabric-wide round.
package fabric

import (
	"fmt"
	"sort"

	"repro/internal/topology"
)

// Partition is the pod/spine decomposition of a labeled fabric, derived
// entirely from the Pod/Tier labels topology.FatTree stamps on nodes. It
// implements recovery.Scoper, so a recovery.Loop can run hierarchical
// rounds without the recovery package knowing about fat-trees.
type Partition struct {
	g      *topology.Graph
	pods   [][]topology.NodeID // pods[p] = switches of pod p (edges + aggs), ascending NodeID
	spines []topology.NodeID   // ascending NodeID
	podOf  map[topology.NodeID]int
	spine  map[topology.NodeID]bool
}

// NewPartition reads the fabric-role labels off the graph. Every switch
// must be labeled either (pod p, edge/agg) or spine; pod numbers must be
// dense 0..P-1.
func NewPartition(g *topology.Graph) (*Partition, error) {
	p := &Partition{
		g:     g,
		podOf: make(map[topology.NodeID]int),
		spine: make(map[topology.NodeID]bool),
	}
	maxPod := -1
	byPod := make(map[int][]topology.NodeID)
	for _, id := range g.Switches() {
		n, _ := g.Node(id)
		switch n.Tier {
		case topology.TierSpine:
			p.spines = append(p.spines, id)
			p.spine[id] = true
		case topology.TierEdge, topology.TierAgg:
			if n.Pod < 0 {
				return nil, fmt.Errorf("fabric: switch %q is %s but has no pod", n.Name, n.Tier)
			}
			byPod[n.Pod] = append(byPod[n.Pod], id)
			p.podOf[id] = n.Pod
			if n.Pod > maxPod {
				maxPod = n.Pod
			}
		default:
			return nil, fmt.Errorf("fabric: switch %q has no fabric role (run topology.FatTree or SetFabricRole)", n.Name)
		}
	}
	if maxPod < 0 {
		return nil, fmt.Errorf("fabric: no pod-labeled switches")
	}
	if len(p.spines) == 0 {
		return nil, fmt.Errorf("fabric: no spine-labeled switches")
	}
	p.pods = make([][]topology.NodeID, maxPod+1)
	for pd := 0; pd <= maxPod; pd++ {
		sw := byPod[pd]
		if len(sw) == 0 {
			return nil, fmt.Errorf("fabric: pod numbering not dense: pod %d empty", pd)
		}
		sort.Slice(sw, func(i, j int) bool { return sw[i] < sw[j] })
		p.pods[pd] = sw
	}
	sort.Slice(p.spines, func(i, j int) bool { return p.spines[i] < p.spines[j] })
	return p, nil
}

// Pod returns pod i's switches (ascending NodeID). Callers must not mutate.
func (p *Partition) Pod(i int) []topology.NodeID { return p.pods[i] }

// Spines returns the spine switches (ascending NodeID).
func (p *Partition) Spines() []topology.NodeID { return p.spines }

// TouchedPods returns the (sorted) pods the trigger switches belong to and
// whether any trigger is a spine.
func (p *Partition) TouchedPods(triggers []topology.NodeID) (pods []int, spineTouched bool) {
	set := make(map[int]bool)
	for _, n := range triggers {
		if p.spine[n] {
			spineTouched = true
			continue
		}
		if pd, ok := p.podOf[n]; ok {
			set[pd] = true
		}
	}
	for pd := range set {
		pods = append(pods, pd)
	}
	sort.Ints(pods)
	return pods, spineTouched
}

// Scope implements the hierarchical participation rule (and with it
// recovery.Scoper): triggers confined to one pod and away from the spine
// layer get that pod alone (spine=false); anything touching a spine or
// spanning pods gets the affected pods plus every spine (spine=true). A
// spine-only trigger set with no affected pod falls back to the whole
// fabric — the spines alone are disconnected (they interconnect only
// through pod aggs), so a region must include at least one pod to run.
func (p *Partition) Scope(triggers []topology.NodeID) (region []topology.NodeID, spine bool) {
	pods, spineTouched := p.TouchedPods(triggers)
	if len(pods) == 1 && !spineTouched {
		return append([]topology.NodeID(nil), p.pods[pods[0]]...), false
	}
	if len(pods) == 0 {
		// Spine-only triggers: escalate to a global round.
		for pd := range p.pods {
			pods = append(pods, pd)
		}
	}
	for _, pd := range pods {
		region = append(region, p.pods[pd]...)
	}
	return append(region, p.spines...), true
}
