package reconfig

import (
	"sort"

	"repro/internal/topology"
)

// machine is the pure protocol state machine of one switch: the three
// phases, the epoch-tag rules, and nothing else. It performs no I/O —
// every outgoing message goes through the emit callback — and keeps no
// clocks, so the same code runs under the event loop (eventloop.go) and
// under the exhaustive model checker (modelcheck_test.go), which explores
// every message interleaving, including bounded loss and duplication. The paper
// notes that program verification caught flaws in early versions of this
// algorithm; the model checker is this reproduction's version of that
// discipline.
//
// The machine is hardened against an unreliable control channel:
// duplicate and stale-epoch messages are no-ops (idempotent receipt keyed
// by (epoch, initiator) tags), a duplicate invite from the current parent
// re-sends the accept (the original ack may have been lost), a duplicate
// report arriving after completion re-sends the distribute (the original
// may have been lost), and retransmit re-sends everything unacknowledged.
// Timers live in the event loop; the machine only exposes what to retransmit
// and whether it is still obligated.
type machine struct {
	id  topology.NodeID
	uid uint64
	// adj is the participating switch neighbors (region-filtered).
	adj []topology.NodeID
	// own is this switch's local topology facts.
	own []LinkRec

	stored Tag
	active *configState
	// view is the latest completed view (nil until first completion).
	view *View

	// dupGuardOff disables the duplicate-invite re-accept — the chaos
	// harness's self-check hook (Hardening.UnsafeNoDupGuard): with the
	// guard off, a retransmitted invite is declined and the child is
	// orphaned, which the harness must catch.
	dupGuardOff bool
}

// emitFunc carries an outgoing protocol message.
type emitFunc func(to topology.NodeID, m message)

// trigger starts a new configuration with this switch as root.
func (mc *machine) trigger(emit emitFunc) {
	tag := Tag{Epoch: mc.stored.Epoch + 1, Initiator: mc.uid}
	mc.stored = tag
	mc.startConfig(tag, topology.None, 0, emit)
}

// handle processes one protocol message.
func (mc *machine) handle(m message, emit emitFunc) {
	switch m.kind {
	case kindTrigger:
		mc.trigger(emit)
	case kindInvite:
		mc.onInvite(m, emit)
	case kindAck:
		mc.onAck(m, emit)
	case kindReport:
		mc.onReport(m, emit)
	case kindDistribute:
		mc.onDistribute(m, emit)
	}
}

// startConfig (re)initializes participation in configuration tag with the
// given parent, inviting all other participating neighbors.
func (mc *machine) startConfig(tag Tag, parent topology.NodeID, depth int, emit emitFunc) {
	cs := &configState{
		tag:       tag,
		parent:    parent,
		depth:     depth,
		pendAck:   make(map[topology.NodeID]bool),
		pendRep:   make(map[topology.NodeID]bool),
		collected: make(map[LinkRec]bool),
	}
	for _, rec := range mc.own {
		cs.collected[rec] = true
	}
	mc.active = cs
	for _, nb := range mc.adj {
		if nb == parent {
			continue
		}
		cs.pendAck[nb] = true
		emit(nb, message{kind: kindInvite, tag: tag, depth: depth})
	}
	mc.checkSubtreeComplete(emit)
}

func (mc *machine) onInvite(m message, emit emitFunc) {
	if mc.stored.Less(m.tag) {
		// Larger tag: abort current activity and join (paper §2).
		mc.stored = m.tag
		emit(m.from, message{kind: kindAck, tag: m.tag, accept: true})
		mc.startConfig(m.tag, m.from, m.depth+1, emit)
		return
	}
	// Duplicate invite from our parent in the current configuration: our
	// accept was lost or the invite was duplicated — re-send the accept
	// (idempotent receipt). Without this guard a retransmitted invite is
	// declined below and the child is orphaned from the tree.
	if !mc.dupGuardOff && mc.active != nil && mc.active.tag == m.tag && mc.active.parent == m.from {
		emit(m.from, message{kind: kindAck, tag: m.tag, accept: true})
		return
	}
	// Equal or smaller tag: decline. (The paper "ignores" stale
	// invitations; declining is equivalent but lets the stale inviter's
	// bookkeeping terminate instead of relying on supersession.)
	emit(m.from, message{kind: kindAck, tag: m.tag, accept: false})
}

func (mc *machine) onAck(m message, emit emitFunc) {
	cs := mc.active
	if cs == nil || cs.tag != m.tag || cs.done {
		return
	}
	if !cs.pendAck[m.from] {
		return
	}
	delete(cs.pendAck, m.from)
	if m.accept {
		cs.children = append(cs.children, m.from)
		cs.pendRep[m.from] = true
	}
	mc.checkSubtreeComplete(emit)
}

func (mc *machine) onReport(m message, emit emitFunc) {
	cs := mc.active
	if cs == nil || cs.tag != m.tag {
		return
	}
	if cs.done {
		// A report arriving after we completed is a child retransmitting
		// because its distribute was lost — re-send it (idempotent).
		if mc.view != nil && cs.isChild(m.from) {
			emit(m.from, message{kind: kindDistribute, tag: cs.tag, links: mc.view.Links, depth: cs.depth})
		}
		return
	}
	if !cs.pendRep[m.from] {
		return
	}
	delete(cs.pendRep, m.from)
	for _, rec := range m.links {
		cs.collected[rec] = true
	}
	mc.checkSubtreeComplete(emit)
}

// checkSubtreeComplete fires when all invitations are acknowledged and all
// children have reported: a leaf-to-root wave (collection phase). The root
// then starts distribution.
func (mc *machine) checkSubtreeComplete(emit emitFunc) {
	cs := mc.active
	if cs == nil || cs.done || len(cs.pendAck) > 0 || len(cs.pendRep) > 0 {
		return
	}
	if cs.parent != topology.None {
		emit(cs.parent, message{kind: kindReport, tag: cs.tag, links: recSet(cs.collected)})
		return
	}
	// Root: collection complete; distribute.
	mc.complete(recSet(cs.collected), emit)
}

func (mc *machine) onDistribute(m message, emit emitFunc) {
	cs := mc.active
	if cs == nil || cs.tag != m.tag || cs.done {
		return
	}
	mc.complete(m.links, emit)
}

// complete ends this switch's participation: adopt the full topology,
// forward it down the tree, and record the view. The list is adopted as it
// is, neither copied nor sorted: the root's comes sorted from recSet and a
// distribute carries it verbatim.
func (mc *machine) complete(links []LinkRec, emit emitFunc) {
	cs := mc.active
	cs.done = true
	for _, ch := range cs.children {
		emit(ch, message{kind: kindDistribute, tag: cs.tag, links: links, depth: cs.depth})
	}
	mc.view = &View{Tag: cs.tag, Links: links, Parent: cs.parent, Depth: cs.depth}
}

// isChild reports whether n accepted this node's invitation.
func (cs *configState) isChild(n topology.NodeID) bool {
	for _, c := range cs.children {
		if c == n {
			return true
		}
	}
	return false
}

// obligated reports whether the machine still has protocol work pending —
// invitations awaiting acknowledgment, children yet to report, or (as a
// non-root with a complete subtree) a report awaiting its implicit ack,
// the parent's distribute. The event loop keeps a retransmission timer armed
// exactly while this holds, and the model checker treats a state as
// quiescent only when no machine is obligated (an obligated machine can
// always fire a timeout).
func (mc *machine) obligated() bool {
	return mc.active != nil && !mc.active.done
}

// retransmit re-sends everything unacknowledged in the active
// configuration: invites still awaiting an ack, and — once this node's
// subtree is complete — the report awaiting the parent's distribute.
// Loss-free delivery never needs it; RunOver and the model checker drive
// it via timeouts. Receipt is idempotent (see onInvite,
// onAck, onReport), so retransmission is always safe.
func (mc *machine) retransmit(emit emitFunc) {
	cs := mc.active
	if cs == nil || cs.done {
		return
	}
	pend := make([]topology.NodeID, 0, len(cs.pendAck))
	for nb := range cs.pendAck {
		pend = append(pend, nb)
	}
	sort.Slice(pend, func(i, j int) bool { return pend[i] < pend[j] })
	for _, nb := range pend {
		emit(nb, message{kind: kindInvite, tag: cs.tag, depth: cs.depth})
	}
	if len(cs.pendAck) == 0 && len(cs.pendRep) == 0 && cs.parent != topology.None {
		emit(cs.parent, message{kind: kindReport, tag: cs.tag, links: recSet(cs.collected)})
	}
}

// clone deep-copies the machine (for state-space exploration).
func (mc *machine) clone() *machine {
	c := &machine{
		id:          mc.id,
		uid:         mc.uid,
		adj:         mc.adj, // immutable
		own:         mc.own, // immutable
		stored:      mc.stored,
		view:        mc.view, // views are immutable once created
		dupGuardOff: mc.dupGuardOff,
	}
	if mc.active != nil {
		cs := &configState{
			tag:       mc.active.tag,
			parent:    mc.active.parent,
			depth:     mc.active.depth,
			pendAck:   make(map[topology.NodeID]bool, len(mc.active.pendAck)),
			pendRep:   make(map[topology.NodeID]bool, len(mc.active.pendRep)),
			collected: make(map[LinkRec]bool, len(mc.active.collected)),
			children:  append([]topology.NodeID(nil), mc.active.children...),
			done:      mc.active.done,
		}
		for k, v := range mc.active.pendAck {
			cs.pendAck[k] = v
		}
		for k, v := range mc.active.pendRep {
			cs.pendRep[k] = v
		}
		for k, v := range mc.active.collected {
			cs.collected[k] = v
		}
		c.active = cs
	}
	return c
}
