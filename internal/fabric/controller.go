package fabric

import (
	"fmt"
	"sort"

	"repro/internal/ctrlnet"
	"repro/internal/reconfig"
	"repro/internal/topology"
)

// ControllerConfig tunes the hierarchical reconfiguration controller.
type ControllerConfig struct {
	// Faults is the control-channel fault model for every round (zero
	// value = lossless but still event-driven and deterministic). Each
	// round derives its own seed from Faults.Seed and the round count.
	Faults ctrlnet.Config
	// Hardening tunes retransmission/watchdog (zero value = defaults).
	Hardening reconfig.Hardening
}

// ControllerStats aggregates the controller's rounds.
type ControllerStats struct {
	PodRounds   int64 // rounds confined to a single pod
	SpineRounds int64 // rounds escalated to the spine layer
	Messages    int64
	Bytes       int64
	MaxUS       int64 // slowest round's convergence time
	Unconverged int64
}

// Controller runs hierarchical reconfiguration over a partitioned fabric:
// each pod carries its own configuration epoch, and a separate spine
// epoch moves only when a fault touches the inter-pod layer. Rounds run
// on the unreliable control channel (reconfig.RunOver) with
// participation chosen by Partition.Scope, so a leaf failure is a
// pod-local round — O(pod) messages and participants — while the rest of
// the fabric's epochs stand still.
//
// Epoch bookkeeping: the protocol itself needs one monotonic supersession
// counter (a switch must never accept a configuration older than one it
// has seen), so every round's BaseEpoch is the global high-water mark.
// The pod and spine epochs are the hierarchy's ledger on top of that:
// PodEpoch(p) counts configurations pod p has adopted, SpineEpoch counts
// fabric-wide ones. CI asserts SpineEpoch stays at zero across leaf-only
// fault workloads.
type Controller struct {
	g    *topology.Graph
	part *Partition
	cfg  ControllerConfig

	epoch      uint64   // global supersession high-water mark
	podEpoch   []uint64 // per-pod configuration epochs
	spineEpoch uint64   // bumps only on escalated rounds

	rounds int64
	stats  ControllerStats
}

// NewController builds a controller over the labeled fabric graph.
func NewController(g *topology.Graph, part *Partition, cfg ControllerConfig) *Controller {
	return &Controller{g: g, part: part, cfg: cfg, podEpoch: make([]uint64, part.NumPods())}
}

// PodEpoch returns pod p's configuration epoch.
func (c *Controller) PodEpoch(p int) uint64 { return c.podEpoch[p] }

// SpineEpoch returns the fabric-wide epoch (escalated rounds only).
func (c *Controller) SpineEpoch() uint64 { return c.spineEpoch }

// Stats returns aggregate round counters.
func (c *Controller) Stats() ControllerStats { return c.stats }

// React runs one reconfiguration round for a believed fault: deadLinks /
// deadNodes describe the believed topology, triggerNodes are the live
// switches that noticed the change (the endpoints of changed links).
// Returns the protocol result and whether the round escalated to the
// spine layer.
func (c *Controller) React(deadLinks map[topology.LinkID]bool, deadNodes map[topology.NodeID]bool, triggerNodes []topology.NodeID) (*reconfig.UnreliableResult, bool, error) {
	runner, err := reconfig.New(reconfig.Config{
		Topology:  c.g,
		DeadLinks: deadLinks,
		DeadNodes: deadNodes,
		BaseEpoch: c.epoch,
	})
	if err != nil {
		return nil, false, err
	}
	picked, spine := c.part.Scope(triggerNodes)
	region := make(reconfig.Region, len(picked))
	for _, s := range picked {
		if !deadNodes[s] {
			region[s] = true
		}
	}
	var triggers []reconfig.Trigger
	for _, n := range triggerNodes {
		if !deadNodes[n] {
			triggers = append(triggers, reconfig.Trigger{Node: n})
		}
	}
	if len(triggers) == 0 {
		return nil, false, fmt.Errorf("fabric: no live trigger switches")
	}
	sort.Slice(triggers, func(i, j int) bool { return triggers[i].Node < triggers[j].Node })

	faults := c.cfg.Faults
	faults.Seed = roundSeed(faults.Seed, c.rounds)
	c.rounds++
	chn, err := ctrlnet.New(faults)
	if err != nil {
		return nil, spine, err
	}
	ur, err := runner.RunOver(triggers, region, chn, c.cfg.Hardening)
	if err != nil {
		return nil, spine, err
	}
	if e := ur.Epoch(); e > c.epoch {
		c.epoch = e
	}
	if spine {
		c.spineEpoch++
		c.stats.SpineRounds++
		// An escalated round reconfigures the touched pods too.
		pods, _ := c.part.TouchedPods(triggerNodes)
		for _, p := range pods {
			c.podEpoch[p]++
		}
	} else {
		pods, _ := c.part.TouchedPods(triggerNodes)
		c.podEpoch[pods[0]]++
		c.stats.PodRounds++
	}
	c.stats.Messages += ur.Messages
	c.stats.Bytes += ur.Bytes
	if ur.MaxCompletionUS > c.stats.MaxUS {
		c.stats.MaxUS = ur.MaxCompletionUS
	}
	if !ur.Converged {
		c.stats.Unconverged++
	}
	return ur, spine, nil
}

// roundSeed mirrors recovery's per-round seed derivation (splitmix64
// finalizer), so a controller run replays exactly from one base seed.
func roundSeed(base, round int64) int64 {
	z := uint64(base) + (uint64(round)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
