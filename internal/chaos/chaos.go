// Package chaos fuzzes the whole recovery stack at once: random fault
// schedules spanning both planes — data-plane link cuts, switch crashes
// and control-plane loss bursts — run against a live network driven by
// recovery.Loop, with global invariants checked every slot. When an
// invariant breaks, Shrink reduces the schedule to a minimal reproducer
// that replays deterministically from the printed struct alone.
//
// The fixture is fixed (a 3×3 torus with one host per switch, workload
// endpoints on the corner switches, fault victims on the other five), so
// a Schedule is pure data: one seed plus an outage list fully determines
// the run. That is what makes shrinking and replay possible — every
// candidate the shrinker tries is just another Run call.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/ctrlnet"
	"repro/internal/reconfig"
	"repro/internal/topology"
)

// Fixture constants: the 3×3 torus switches are 0..8 row-major; hosts
// (and therefore circuit endpoints) sit on the corners, which stay
// connected to each other through the wrap links no schedule may cut, so
// no fault can strand an endpoint permanently.
var (
	corners = []topology.NodeID{0, 2, 6, 8}
	victims = []topology.NodeID{1, 3, 4, 5, 7}
)

// burstTailSlots extends a control-loss burst past its outage's heal, so
// the reconfiguration rounds triggered by the recovery (not just the
// failure) also run over the degraded channel.
const burstTailSlots = 150

// Outage is one scheduled fault: a link cut or switch crash active over
// [Start, End) in slots, optionally with a control-plane loss burst
// riding along. Bursts are always attached to a hardware outage because
// control loss only matters while reconfiguration rounds are running,
// and rounds only run when beliefs flip.
type Outage struct {
	// Switch selects a switch crash (on Node); otherwise Link is cut.
	Switch bool
	Link   topology.LinkID
	Node   topology.NodeID
	// Start and End bound the hardware fault in slots (End heals it).
	Start, End int64
	// Burst, when > 0, raises the control channel's drop probability to
	// this value during [Start, End+burstTailSlots).
	Burst float64
}

func (o Outage) String() string {
	s := fmt.Sprintf("link %d", o.Link)
	if o.Switch {
		s = fmt.Sprintf("switch %d", o.Node)
	}
	s += fmt.Sprintf(" down [%d,%d)", o.Start, o.End)
	if o.Burst > 0 {
		s += fmt.Sprintf(" +ctrl-burst drop=%.2f until %d", o.Burst, o.End+burstTailSlots)
	}
	return s
}

// Schedule is one complete chaos run: everything Run needs, and nothing
// else. Two Runs of an equal Schedule do identical work.
type Schedule struct {
	// Seed drives the workload, the switch schedulers, and (via per-round
	// derivation inside recovery) every control-channel fault decision.
	Seed int64
	// Horizon is the run length in slots.
	Horizon int64
	// Grace is the quiet tail: every outage heals by Horizon-Grace, and
	// the end-state invariants (quiescence, no stranded circuits) are
	// checked only after the loop has had this long to settle.
	Grace int64
	// Faults is the baseline control-plane fault model applied to every
	// reconfiguration round (its Seed field is ignored; Schedule.Seed is
	// used). Bursts raise DropProb above this floor.
	Faults ctrlnet.Config
	// Hardening tunes the watchdog layer. The zero value uses reconfig's
	// defaults; UnsafeNoDupGuard reintroduces the duplicate-receipt bug
	// the harness exists to catch.
	Hardening reconfig.Hardening
	// RetriggerBudget bounds total watchdog re-triggers across the run.
	// With the protocol intact retransmission absorbs nearly everything
	// (measured max: 1 re-trigger over 30 generated schedules); with the
	// duplicate-receipt guard removed, orphaned subtrees re-trigger
	// relentlessly (measured min: 24). Generate sets 4 — far above the
	// intact protocol's tail, far below the bug's floor.
	RetriggerBudget int64
	Outages         []Outage
}

// String prints the schedule as a complete, replayable reproducer.
func (s Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos.Schedule{seed=%d horizon=%d grace=%d drop=%.2f dup=%.2f reorder=%.2f corrupt=%.2f budget=%d",
		s.Seed, s.Horizon, s.Grace,
		s.Faults.DropProb, s.Faults.DupProb, s.Faults.ReorderProb, s.Faults.CorruptProb,
		s.RetriggerBudget)
	if s.Hardening.UnsafeNoDupGuard {
		b.WriteString(" UNSAFE-no-dup-guard")
	}
	b.WriteString("}")
	for i, o := range s.Outages {
		fmt.Fprintf(&b, "\n  outage %d: %s", i, o)
	}
	return b.String()
}

// A generated schedule runs 3000 slots, the last 800 of them quiet, and
// has 2–4 outages, each carrying a 35% control-loss burst with chance 0.4,
// over baseline control loss of 20% with 10% duplication and 10%
// reordering.
const (
	genHorizon     = 3000
	genGrace       = 800
	genMinOutages  = 2
	genMaxOutages  = 4
	genBurstProb   = 0.4
	genBurstDrop   = 0.35
	genDropProb    = 0.20
	genDupProb     = 0.10
	genReorderProb = 0.10
)

// Generate builds a random schedule from the seed: 2–4 overlapping
// outages on victim links and switches, some carrying control-loss
// bursts, all healed by Horizon-Grace so the end-state invariants are
// fair. The same seed always yields the same schedule.
func Generate(seed int64) Schedule {
	rng := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
	s := Schedule{
		Seed:            seed,
		Horizon:         genHorizon,
		Grace:           genGrace,
		RetriggerBudget: 4,
		Faults: ctrlnet.Config{
			DropProb:    genDropProb,
			DupProb:     genDupProb,
			ReorderProb: genReorderProb,
		},
	}
	links := victimLinks()
	n := genMinOutages + rng.Intn(genMaxOutages-genMinOutages+1)
	lastStart := int64(genHorizon - genGrace - 700)
	for i := 0; i < n; i++ {
		start := 200 + rng.Int63n(lastStart-200+1)
		dur := 100 + rng.Int63n(400)
		end := min(start+dur, genHorizon-genGrace)
		o := Outage{Start: start, End: end, Link: -1, Node: -1}
		if rng.Float64() < 0.25 {
			o.Switch = true
			o.Node = victims[rng.Intn(len(victims))]
		} else {
			o.Link = links[rng.Intn(len(links))]
		}
		if rng.Float64() < genBurstProb {
			o.Burst = genBurstDrop
		}
		s.Outages = append(s.Outages, o)
	}
	return s
}

// victimLinks returns, in ascending LinkID order, every inter-switch
// link of the fixture torus with at least one victim endpoint — the
// links a schedule may cut. The corner-to-corner wrap links are excluded
// by construction, so circuit endpoints can never be isolated.
func victimLinks() []topology.LinkID {
	g := fixtureGraph()
	isVictim := make(map[topology.NodeID]bool)
	for _, v := range victims {
		isVictim[v] = true
	}
	var out []topology.LinkID
	for _, l := range g.Links() {
		if g.SwitchOnly(l) && (isVictim[l.A] || isVictim[l.B]) {
			out = append(out, l.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
