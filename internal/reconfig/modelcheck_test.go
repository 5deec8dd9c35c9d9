package reconfig

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/topology"
)

// The paper (§6): "The reconfiguration algorithm, in particular, benefited
// from program verification; flaws in several early versions were
// discovered during that process."
//
// This file is that discipline applied to our implementation: an explicit
// state-space model checker that explores EVERY interleaving of message
// deliveries and trigger firings on small topologies, driving the same
// pure protocol machine (protocol.go) the production goroutine runtime
// uses. Channels are FIFO per ordered pair, as real links are. At every
// quiescent state the checker asserts the protocol's contract:
//
//  1. Termination: quiescence is reached (no lost wakeups / stuck nodes).
//  2. Completion: every switch has adopted some configuration.
//  3. Agreement: all switches finished the SAME configuration — the one
//     with the largest epoch tag — with identical topology views.
//  4. Accuracy: that view is exactly the live topology.
//
// The checker also models an UNRELIABLE control channel, bounded so the
// space stays finite: a loss budget lets any in-flight message be dropped,
// a duplication budget lets any in-flight message be redelivered later
// (the copy re-queues at the tail, so it also arrives out of order), and a
// timeout transition lets any still-obligated machine fire its
// retransmission timer. Timeouts are enabled only once the network has
// drained — the standard abstraction that timers are much slower than
// links, which is exactly how the event loop's Hardening tunes them. Under
// faults, a state is terminal only when the network is drained AND no
// machine is obligated (an obligated machine can always time out), so the
// contract above must survive EVERY bounded loss/duplication interleaving.

// chanKey identifies a FIFO link direction.
type chanKey struct {
	from, to topology.NodeID
}

// mcState is one node of the state space.
type mcState struct {
	machines map[topology.NodeID]*machine
	channels map[chanKey][]message
	// triggers not yet fired, per node (count).
	triggers map[topology.NodeID]int
	// lossBudget / dupBudget bound how many adversarial drops and
	// duplications remain available.
	lossBudget int
	dupBudget  int
}

func (s *mcState) clone() *mcState {
	c := &mcState{
		machines:   make(map[topology.NodeID]*machine, len(s.machines)),
		channels:   make(map[chanKey][]message, len(s.channels)),
		triggers:   make(map[topology.NodeID]int, len(s.triggers)),
		lossBudget: s.lossBudget,
		dupBudget:  s.dupBudget,
	}
	for id, m := range s.machines {
		c.machines[id] = m.clone()
	}
	for k, q := range s.channels {
		if len(q) > 0 {
			c.channels[k] = append([]message(nil), q...)
		}
	}
	for id, n := range s.triggers {
		if n > 0 {
			c.triggers[id] = n
		}
	}
	return c
}

// drained reports no deliverable messages and no unfired triggers.
func (s *mcState) drained() bool {
	for _, q := range s.channels {
		if len(q) > 0 {
			return false
		}
	}
	for _, n := range s.triggers {
		if n > 0 {
			return false
		}
	}
	return true
}

// quiescent reports no enabled transition at all: the network is drained
// and no machine is obligated (an obligated machine can fire a timeout).
func (s *mcState) quiescent() bool {
	if !s.drained() {
		return false
	}
	for _, m := range s.machines {
		if m.obligated() {
			return false
		}
	}
	return true
}

// Transition kinds.
const (
	chDeliver = iota // deliver the head of a channel
	chDrop           // drop the head of a channel (consumes lossBudget)
	chDup            // redeliver the head later (consumes dupBudget)
	chTrigger        // fire a pending trigger
	chTimeout        // an obligated machine's retransmission timer fires
)

// choice is one enabled transition.
type choice struct {
	kind int
	node topology.NodeID // trigger / timeout target
	ch   chanKey         // channel whose head is affected
}

func (s *mcState) choices() []choice {
	var out []choice
	var keys []chanKey
	for k, q := range s.channels {
		if len(q) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	for _, k := range keys {
		out = append(out, choice{kind: chDeliver, ch: k})
		if s.lossBudget > 0 {
			out = append(out, choice{kind: chDrop, ch: k})
		}
		if s.dupBudget > 0 {
			out = append(out, choice{kind: chDup, ch: k})
		}
	}
	var tnodes []topology.NodeID
	for id, n := range s.triggers {
		if n > 0 {
			tnodes = append(tnodes, id)
		}
	}
	sort.Slice(tnodes, func(i, j int) bool { return tnodes[i] < tnodes[j] })
	for _, id := range tnodes {
		out = append(out, choice{kind: chTrigger, node: id})
	}
	// Timeouts only once the network drains: timers run far slower than
	// links. Without this fairness abstraction the space is infinite.
	if s.drained() {
		var onodes []topology.NodeID
		for id, m := range s.machines {
			if m.obligated() {
				onodes = append(onodes, id)
			}
		}
		sort.Slice(onodes, func(i, j int) bool { return onodes[i] < onodes[j] })
		for _, id := range onodes {
			out = append(out, choice{kind: chTimeout, node: id})
		}
	}
	return out
}

// apply executes a choice in place.
func (s *mcState) apply(c choice) {
	emitFrom := func(mc *machine) emitFunc {
		return func(to topology.NodeID, out message) {
			if _, ok := s.machines[to]; !ok {
				return
			}
			out.from = mc.id
			k := chanKey{from: mc.id, to: to}
			s.channels[k] = append(s.channels[k], out)
		}
	}
	switch c.kind {
	case chDrop:
		s.popHead(c.ch)
		s.lossBudget--
	case chDup:
		// Redeliver a copy later: re-queue at the tail, so the duplicate
		// also overtakes nothing and arrives behind younger messages.
		q := s.channels[c.ch]
		s.channels[c.ch] = append(q, q[0])
		s.dupBudget--
	case chTrigger:
		s.triggers[c.node]--
		mc := s.machines[c.node]
		mc.handle(message{kind: kindTrigger}, emitFrom(mc))
	case chTimeout:
		mc := s.machines[c.node]
		mc.retransmit(emitFrom(mc))
	case chDeliver:
		msg := s.popHead(c.ch)
		mc := s.machines[c.ch.to]
		mc.handle(msg, emitFrom(mc))
	}
}

// popHead removes and returns the head of a channel queue.
func (s *mcState) popHead(k chanKey) message {
	q := s.channels[k]
	msg := q[0]
	if len(q) == 1 {
		delete(s.channels, k)
	} else {
		s.channels[k] = q[1:]
	}
	return msg
}

// checker runs the DFS with state memoization: interleavings that converge
// to the same global state are explored once.
type checker struct {
	t          *testing.T
	expected   []LinkRec
	stateSteps int
	terminals  int
	cap        int
	capped     bool
	seen       map[string]bool
}

func (ck *checker) explore(s *mcState) {
	if ck.stateSteps >= ck.cap {
		ck.capped = true
		return
	}
	if ck.seen == nil {
		ck.seen = make(map[string]bool)
	}
	key := s.fingerprint()
	if ck.seen[key] {
		return
	}
	ck.seen[key] = true
	ck.checkStepInvariants(s)
	if s.quiescent() {
		ck.terminals++
		ck.validate(s)
		return
	}
	for _, c := range s.choices() {
		if ck.stateSteps >= ck.cap {
			ck.capped = true
			return
		}
		ck.stateSteps++
		next := s.clone()
		next.apply(c)
		ck.explore(next)
	}
}

// fingerprint canonically serializes the global state.
func (s *mcState) fingerprint() string {
	var b []byte
	var ids []topology.NodeID
	for id := range s.machines {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		m := s.machines[id]
		b = fmt.Appendf(b, "n%d:s%v", id, m.stored)
		if cs := m.active; cs != nil {
			b = fmt.Appendf(b, "a%v,p%d,d%d,done%v", cs.tag, cs.parent, cs.depth, cs.done)
			b = appendIDSet(b, cs.pendAck)
			b = appendIDSet(b, cs.pendRep)
			kids := append([]topology.NodeID(nil), cs.children...)
			sort.Slice(kids, func(i, j int) bool { return kids[i] < kids[j] })
			b = fmt.Appendf(b, "k%v", kids)
			b = appendRecSet(b, cs.collected)
		}
		if m.view != nil {
			b = fmt.Appendf(b, "v%v#%d", m.view.Tag, len(m.view.Links))
		}
		b = append(b, ';')
	}
	var keys []chanKey
	for k, q := range s.channels {
		if len(q) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	for _, k := range keys {
		b = fmt.Appendf(b, "c%d-%d:", k.from, k.to)
		for _, m := range s.channels[k] {
			b = fmt.Appendf(b, "[%d,%v,%v,%d,#%d]", m.kind, m.tag, m.accept, m.depth, len(m.links))
		}
	}
	for _, id := range ids {
		if n := s.triggers[id]; n > 0 {
			b = fmt.Appendf(b, "t%d:%d", id, n)
		}
	}
	b = fmt.Appendf(b, "L%d,D%d", s.lossBudget, s.dupBudget)
	return string(b)
}

func appendIDSet(b []byte, set map[topology.NodeID]bool) []byte {
	var ids []topology.NodeID
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return fmt.Appendf(b, "%v", ids)
}

func appendRecSet(b []byte, set map[LinkRec]bool) []byte {
	recs := make([]LinkRec, 0, len(set))
	for r := range set {
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].A != recs[j].A {
			return recs[i].A < recs[j].A
		}
		return recs[i].B < recs[j].B
	})
	return fmt.Appendf(b, "%v", recs)
}

// checkStepInvariants asserts properties that must hold in EVERY reachable
// state, not just quiescent ones.
func (ck *checker) checkStepInvariants(s *mcState) {
	for _, m := range s.machines {
		// A participating node always participates in its largest-seen
		// configuration.
		if m.active != nil && m.active.tag != m.stored {
			ck.t.Fatalf("switch %d active in %v but stored %v", m.id, m.active.tag, m.stored)
		}
		// A completed participation implies a published view of that
		// configuration.
		if m.active != nil && m.active.done {
			if m.view == nil || m.view.Tag != m.active.tag {
				ck.t.Fatalf("switch %d done in %v without matching view", m.id, m.active.tag)
			}
		}
		// A node never waits on itself or its parent.
		if cs := m.active; cs != nil {
			if cs.pendAck[m.id] || cs.pendRep[m.id] {
				ck.t.Fatalf("switch %d waits on itself", m.id)
			}
			if cs.parent != topology.None && (cs.pendAck[cs.parent] || cs.pendRep[cs.parent]) {
				ck.t.Fatalf("switch %d waits on its parent", m.id)
			}
		}
	}
}

func (ck *checker) validate(s *mcState) {
	var winner Tag
	for _, m := range s.machines {
		if m.view == nil {
			ck.t.Fatalf("quiescent state with incomplete switch %d", m.id)
		}
		if winner.Less(m.view.Tag) {
			winner = m.view.Tag
		}
	}
	for _, m := range s.machines {
		if m.view.Tag != winner {
			ck.t.Fatalf("agreement violated: switch %d finished %v, winner %v",
				m.id, m.view.Tag, winner)
		}
		if !equalRecs(m.view.Links, ck.expected) {
			ck.t.Fatalf("accuracy violated: switch %d learned %v, want %v",
				m.id, m.view.Links, ck.expected)
		}
	}
}

// buildState constructs the initial model state for a topology, trigger
// multiset, and adversarial fault budgets.
func buildState(t *testing.T, g *topology.Graph, triggers map[topology.NodeID]int, lossBudget, dupBudget int) (*mcState, []LinkRec) {
	t.Helper()
	r, err := New(Config{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	s := &mcState{
		machines:   make(map[topology.NodeID]*machine),
		channels:   make(map[chanKey][]message),
		triggers:   make(map[topology.NodeID]int),
		lossBudget: lossBudget,
		dupBudget:  dupBudget,
	}
	for _, sw := range r.LiveSwitches() {
		node, _ := g.Node(sw)
		s.machines[sw] = &machine{
			id:  sw,
			uid: node.UID,
			adj: r.adj[sw],
			own: r.own[sw],
		}
	}
	for id, n := range triggers {
		s.triggers[id] = n
	}
	return s, r.ExpectedLinks()
}

func modelCheck(t *testing.T, g *topology.Graph, triggers map[topology.NodeID]int, cap_ int) (steps, terminals int, capped bool) {
	t.Helper()
	return modelCheckFaulty(t, g, triggers, 0, 0, cap_)
}

// modelCheckFaulty explores with adversarial loss and duplication budgets.
func modelCheckFaulty(t *testing.T, g *topology.Graph, triggers map[topology.NodeID]int, loss, dup, cap_ int) (steps, terminals int, capped bool) {
	t.Helper()
	s, expected := buildState(t, g, triggers, loss, dup)
	ck := &checker{t: t, expected: expected, cap: cap_}
	ck.explore(s)
	return ck.stateSteps, ck.terminals, ck.capped
}

// pinCounts holds an exploration to the state counts recorded for it. They
// depend only on the machines and the messages they exchange — never on
// how the event loop encodes, decodes or shares them — so a change to the
// runner must leave every count where it is.
func pinCounts(t *testing.T, steps, terminals, wantSteps, wantTerminals int) {
	t.Helper()
	if steps != wantSteps || terminals != wantTerminals {
		t.Fatalf("explored %d steps, %d terminals; recorded %d, %d", steps, terminals, wantSteps, wantTerminals)
	}
}

func TestModelCheckTwoSwitchesSingleTrigger(t *testing.T) {
	g, err := topology.Line(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	steps, terminals, capped := modelCheck(t, g, map[topology.NodeID]int{0: 1}, 1_000_000)
	if capped {
		t.Fatal("tiny case should be exhaustively explored")
	}
	if terminals == 0 {
		t.Fatal("no terminal states reached")
	}
	t.Logf("2-switch single trigger: %d steps, %d terminal states — all correct", steps, terminals)
	pinCounts(t, steps, terminals, 5, 1)
}

// The crown jewel: two concurrent triggers on two switches — every
// interleaving of the competing configurations must converge to agreement.
func TestModelCheckTwoSwitchesConcurrentTriggers(t *testing.T) {
	g, err := topology.Line(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	steps, terminals, capped := modelCheck(t, g, map[topology.NodeID]int{0: 1, 1: 1}, 2_000_000)
	if capped {
		t.Fatal("2-switch overlap should be exhaustively explored")
	}
	if terminals == 0 {
		t.Fatal("no terminal states reached")
	}
	t.Logf("2-switch concurrent triggers: %d steps, %d terminals — all agree", steps, terminals)
	pinCounts(t, steps, terminals, 56, 3)
}

func TestModelCheckLineOfThree(t *testing.T) {
	if testing.Short() {
		t.Skip("state space exploration")
	}
	g, err := topology.Line(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	steps, terminals, capped := modelCheck(t, g, map[topology.NodeID]int{1: 1}, 3_000_000)
	if capped {
		t.Fatal("3-switch line single trigger should be exhaustive")
	}
	if terminals == 0 {
		t.Fatal("no terminals")
	}
	t.Logf("3-switch line: %d steps, %d terminals", steps, terminals)
	pinCounts(t, steps, terminals, 29, 1)
}

func TestModelCheckTriangleOverlap(t *testing.T) {
	if testing.Short() {
		t.Skip("state space exploration")
	}
	g := topology.New()
	a := g.AddSwitch("a")
	b := g.AddSwitch("b")
	c := g.AddSwitch("c")
	for _, pr := range [][2]topology.NodeID{{a, b}, {b, c}, {a, c}} {
		if _, err := g.Connect(pr[0], pr[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	// Two concurrent triggers at opposite corners: with memoization the
	// space is exhausted.
	steps, terminals, capped := modelCheck(t, g, map[topology.NodeID]int{a: 1, c: 1}, 4_000_000)
	if capped {
		t.Fatal("triangle overlap should be exhaustively explored")
	}
	if terminals == 0 {
		t.Fatal("no terminals — checker is broken")
	}
	t.Logf("triangle overlap: %d steps, %d terminals — exhaustive, all agree", steps, terminals)
	pinCounts(t, steps, terminals, 19000, 9)
}

func TestModelCheckRingOfFourOverlap(t *testing.T) {
	if testing.Short() {
		t.Skip("state space exploration")
	}
	g, err := topology.Ring(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent triggers at opposite corners of the ring; budget-bounded
	// (the unique-state space runs to millions) — every quiescent state
	// reached is validated.
	steps, terminals, capped := modelCheck(t, g, map[topology.NodeID]int{0: 1, 2: 1}, 600_000)
	if terminals == 0 && !capped {
		t.Fatal("no terminals and not capped — checker is broken")
	}
	t.Logf("ring-4 overlap: %d steps, %d terminals (capped=%v)", steps, terminals, capped)
	pinCounts(t, steps, terminals, 107708, 12)
}

// A double trigger at the SAME node (a link flaps twice): epochs must
// stack and the final agreement is on the second configuration.
func TestModelCheckRepeatedTriggerSameNode(t *testing.T) {
	g, err := topology.Line(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, expected := buildState(t, g, map[topology.NodeID]int{0: 2}, 0, 0)
	ck := &checker{t: t, expected: expected, cap: 2_000_000}
	ck.explore(s)
	if ck.capped {
		t.Fatal("should be exhaustive")
	}
	if ck.terminals == 0 {
		t.Fatal("no terminals")
	}
	pinCounts(t, ck.stateSteps, ck.terminals, 26, 1)
}

// Every interleaving of up to two message losses on a two-switch network:
// retransmission (timeout transitions) must always restore agreement.
func TestModelCheckTwoSwitchesWithLoss(t *testing.T) {
	g, err := topology.Line(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	steps, terminals, capped := modelCheckFaulty(t, g, map[topology.NodeID]int{0: 1}, 2, 0, 2_000_000)
	if capped {
		t.Fatal("2-switch with loss budget 2 should be exhaustively explored")
	}
	if terminals == 0 {
		t.Fatal("no terminal states reached")
	}
	t.Logf("2-switch loss=2: %d steps, %d terminals — all recover and agree", steps, terminals)
	pinCounts(t, steps, terminals, 45, 3)
}

// Every interleaving of up to two duplicated messages: idempotent receipt
// must make every duplicate a no-op.
func TestModelCheckTwoSwitchesWithDuplication(t *testing.T) {
	g, err := topology.Line(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	steps, terminals, capped := modelCheckFaulty(t, g, map[topology.NodeID]int{0: 1}, 0, 2, 2_000_000)
	if capped {
		t.Fatal("2-switch with dup budget 2 should be exhaustively explored")
	}
	if terminals == 0 {
		t.Fatal("no terminal states reached")
	}
	t.Logf("2-switch dup=2: %d steps, %d terminals — duplicates are no-ops", steps, terminals)
	pinCounts(t, steps, terminals, 106, 3)
}

// Loss and duplication together, with concurrent competing triggers — the
// hardest small case: supersession, retransmission, and idempotent receipt
// all interact.
func TestModelCheckConcurrentTriggersLossAndDup(t *testing.T) {
	if testing.Short() {
		t.Skip("state space exploration")
	}
	g, err := topology.Line(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	steps, terminals, capped := modelCheckFaulty(t, g, map[topology.NodeID]int{0: 1, 1: 1}, 1, 1, 6_000_000)
	if capped {
		t.Fatal("2-switch concurrent loss=1 dup=1 should be exhaustive")
	}
	if terminals == 0 {
		t.Fatal("no terminal states reached")
	}
	t.Logf("2-switch concurrent loss=1 dup=1: %d steps, %d terminals", steps, terminals)
	pinCounts(t, steps, terminals, 1548, 12)
}

// Three switches in a line with one loss anywhere: the dropped message may
// be an invite, ack, report, or distribute — each repair path (re-invite,
// re-accept, re-report, re-distribute) is exercised by some branch.
func TestModelCheckLineOfThreeWithLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("state space exploration")
	}
	g, err := topology.Line(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	steps, terminals, capped := modelCheckFaulty(t, g, map[topology.NodeID]int{1: 1}, 1, 0, 6_000_000)
	if capped {
		t.Fatal("3-switch line loss=1 should be exhaustive")
	}
	if terminals == 0 {
		t.Fatal("no terminal states reached")
	}
	t.Logf("3-switch line loss=1: %d steps, %d terminals", steps, terminals)
	pinCounts(t, steps, terminals, 131, 2)
}

// With the duplicate-invite re-accept guard removed (the chaos harness's
// deliberate-bug hook), a lost ack followed by a retransmitted invite
// orphans the child: the checker must find a drained state where the
// orphan is still obligated and can never finish in that epoch. This
// guards the guard — if the model checker stops being able to see the
// bug, the chaos harness's self-check is meaningless.
func TestModelCheckDupGuardRemovalBreaksRepair(t *testing.T) {
	g, err := topology.Line(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := buildState(t, g, map[topology.NodeID]int{0: 1}, 1, 0)
	for _, m := range s.machines {
		m.dupGuardOff = true
	}
	// Hand-drive the orphaning interleaving: trigger 0, deliver the
	// invite, DROP the accept-ack, then let 0's timeout re-invite; the
	// broken machine declines and 0 completes alone while 1 stays
	// obligated forever.
	mustApply := func(want choice) {
		t.Helper()
		for _, c := range s.choices() {
			if c == want {
				s.apply(c)
				return
			}
		}
		t.Fatalf("choice %+v not enabled; have %+v", want, s.choices())
	}
	// Node 1 is a leaf: accepting makes its subtree complete, so its ack
	// and its report are queued back-to-back. Drop the ack, let the
	// (premature) report be ignored, then retransmit the invite.
	mustApply(choice{kind: chTrigger, node: 0})
	mustApply(choice{kind: chDeliver, ch: chanKey{from: 0, to: 1}}) // invite
	mustApply(choice{kind: chDrop, ch: chanKey{from: 1, to: 0}})    // the accept-ack, lost
	mustApply(choice{kind: chDeliver, ch: chanKey{from: 1, to: 0}}) // report: not a child yet, ignored
	mustApply(choice{kind: chTimeout, node: 0})
	mustApply(choice{kind: chDeliver, ch: chanKey{from: 0, to: 1}}) // re-invite: DECLINED (guard off)
	mustApply(choice{kind: chDeliver, ch: chanKey{from: 1, to: 0}}) // the decline
	if !s.drained() {
		t.Fatalf("expected drained network, still have %+v", s.choices())
	}
	if s.machines[0].obligated() {
		t.Fatal("switch 0 should have completed alone (1's accept was lost)")
	}
	if !s.machines[1].obligated() {
		t.Fatal("switch 1 should be orphaned: accepted, then declined the retransmit")
	}
	if s.quiescent() {
		t.Fatal("orphaned state must not count as quiescent")
	}
	// Sanity: with the guard ON the same loss heals through retransmission.
	s, _ = buildState(t, g, map[topology.NodeID]int{0: 1}, 1, 0)
	mustApply(choice{kind: chTrigger, node: 0})
	mustApply(choice{kind: chDeliver, ch: chanKey{from: 0, to: 1}})
	mustApply(choice{kind: chDrop, ch: chanKey{from: 1, to: 0}})
	mustApply(choice{kind: chDeliver, ch: chanKey{from: 1, to: 0}})
	mustApply(choice{kind: chTimeout, node: 0})
	mustApply(choice{kind: chDeliver, ch: chanKey{from: 0, to: 1}}) // re-invite: re-accepted
	mustApply(choice{kind: chDeliver, ch: chanKey{from: 1, to: 0}}) // the re-accept
	mustApply(choice{kind: chTimeout, node: 1})                     // 1 re-sends its report
	mustApply(choice{kind: chDeliver, ch: chanKey{from: 1, to: 0}}) // report lands, 0 completes
	mustApply(choice{kind: chDeliver, ch: chanKey{from: 0, to: 1}}) // distribute
	if !s.quiescent() {
		t.Fatalf("hardened machines should have converged; choices: %+v", s.choices())
	}
}

// Sanity for the harness itself: a deliberately broken validation must be
// able to fire (guard against a checker that vacuously passes).
func TestModelCheckerReachesStates(t *testing.T) {
	g, err := topology.Line(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := buildState(t, g, map[topology.NodeID]int{0: 1}, 0, 0)
	if s.quiescent() {
		t.Fatal("initial state with pending trigger reported quiescent")
	}
	if got := len(s.choices()); got != 1 {
		t.Fatalf("initial choices = %d, want 1 (the trigger)", got)
	}
	s.apply(s.choices()[0])
	if len(s.choices()) == 0 {
		t.Fatal("trigger produced no messages")
	}
	if fp := s.fingerprint(); fp == "" {
		t.Fatal("empty fingerprint for a live state")
	}
}
