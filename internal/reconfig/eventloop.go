package reconfig

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/ctrlnet"
	"repro/internal/proto"
	"repro/internal/topology"
)

// This file is the protocol's one runner: a single-threaded virtual-time
// event simulation. Events are processed in (time, sequence) order, so
// "the first invitation a switch receives" is decided by virtual arrival
// time — with uniform link delays the propagation-order tree IS a
// breadth-first tree — and a run is exactly reproducible: the property
// core.New's up*/down* orientation, the chaos harness's shrinking and the
// experiment tables all depend on. Leaving arrival order to the host — a
// goroutine per switch, say — measured 4× to 12× deeper than BFS on a
// radix-24 fat-tree, differently every run (DESIGN.md §6).
//
// Run and RunScoped use a private loss-free channel. RunOver threads every
// message through a caller's transport — package ctrlnet's fault injector
// drops, duplicates, reorders, delays, bit-corrupts and burst-drops them
// from one seeded RNG, exactly as the paper's §2/§6 control plane, which
// shares links with the data plane, can misbehave — and layers protocol
// hardening on top of the pure machine:
//
//   - Retransmission: while a node is obligated (invites unacked, children
//     unreported, or a report awaiting its distribute) a retransmission
//     timer re-sends everything unacknowledged, with exponential backoff.
//   - Idempotent receipt: duplicates and stale epochs are no-ops in the
//     machine itself (see protocol.go), so retransmission is always safe.
//   - Watchdog: a node stuck in the same incomplete configuration for
//     WatchdogUS re-triggers with a fresh epoch — the liveness backstop
//     for pathologies retransmission cannot fix (e.g. a partition that
//     healed after the inviter gave up).
//
// CRC rejection is real here: a corrupted wire image fails
// proto.DecodeHeader at the receiver and is counted in CRCRejects.

// The hardening layer's timers and bounds. RunOver arms the timers; Run
// and RunScoped, whose channel cannot lose a message, arm none and run
// unbounded.
const (
	// retxTimeoutUS is the initial retransmission timeout for invites
	// awaiting their ack — a single round-trip exchange (a few link
	// round-trips). It is shorter than a radix-24 neighbour's processing
	// queue, so on a fat-tree it should follow the live degree.
	retxTimeoutUS = 60
	// retxMaxUS caps the invite backoff.
	retxMaxUS = 480
	// reportRetxUS is the initial retransmission timeout for a report
	// awaiting its implicit ack, the parent's distribute. That wait
	// legitimately spans the whole tree's collection and distribution, so
	// it runs on a slower clock than the invite round-trip (backoff
	// capped at 2×).
	reportRetxUS = 600
	// maxRetriggersPerNode caps watchdog re-triggers so a permanently
	// partitioned node cannot spin forever.
	maxRetriggersPerNode = 8
	// maxVirtualUS bounds the run in virtual time; past it the run stops
	// and reports Converged=false.
	maxVirtualUS = 1_000_000
	// maxEvents is a safety valve on total processed events.
	maxEvents = 1 << 21
)

// Hardening tunes the watchdog layer.
type Hardening struct {
	// WatchdogUS is how long a node may sit in the same incomplete
	// configuration before re-triggering (default 15000 µs — comfortably
	// above the deepest retransmission-repair chain, so it fires only for
	// pathologies retransmission cannot fix).
	WatchdogUS int64
	// UnsafeNoDupGuard disables the duplicate-invite re-accept guard in
	// the machine. It exists ONLY so the chaos harness can verify it
	// catches a reintroduced protocol bug; never set it otherwise.
	UnsafeNoDupGuard bool
}

func (h Hardening) withDefaults() Hardening {
	if h.WatchdogUS <= 0 {
		h.WatchdogUS = 15000
	}
	return h
}

// UnreliableResult extends Result with the fault-model accounting.
type UnreliableResult struct {
	Result
	// Channel is the injector's decision counters.
	Channel ctrlnet.Stats
	// CRCRejects counts delivered wire images the codec rejected
	// (corruption detected by the CRC — the receiver's view of Corrupted).
	CRCRejects int64
	// Retransmits counts retransmission timer firings that re-sent
	// something.
	Retransmits int64
	// Retriggers counts watchdog re-triggers (fresh epochs started
	// because a configuration stalled).
	Retriggers int64
	// Converged reports whether every participant completed the winning
	// configuration with identical views before the virtual-time bound.
	Converged bool
}

// event kinds for the virtual-time simulation.
const (
	uevTrigger = iota
	uevDeliver
	uevRetx
	uevWatchdog
)

type uevent struct {
	atUS int64
	seq  int64
	kind int
	node topology.NodeID
	wire []byte
}

type ueventHeap []*uevent

func (h ueventHeap) Len() int { return len(h) }
func (h ueventHeap) Less(i, j int) bool {
	if h[i].atUS != h[j].atUS {
		return h[i].atUS < h[j].atUS
	}
	return h[i].seq < h[j].seq
}
func (h ueventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *ueventHeap) Push(x interface{}) { *h = append(*h, x.(*uevent)) }
func (h *ueventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Retransmission phases: what a still-obligated node is waiting for
// determines which timescale its timer runs on.
const (
	phaseNone     = iota // nothing to retransmit
	phaseInvite          // invites awaiting acks: one round-trip exchange
	phaseChildren        // children owe reports; THEY retransmit, we wait
	phaseReport          // report sent, awaiting the parent's distribute
)

// retxPhase classifies the machine's current wait.
func retxPhase(mc *machine) int {
	cs := mc.active
	if cs == nil || cs.done {
		return phaseNone
	}
	if len(cs.pendAck) > 0 {
		return phaseInvite
	}
	if len(cs.pendRep) > 0 {
		return phaseChildren
	}
	if cs.parent != topology.None {
		return phaseReport
	}
	return phaseNone
}

// unode is one switch's runtime state under the event loop.
type unode struct {
	id     topology.NodeID
	mc     *machine
	emit   emitFunc // the machine's way out, built once per run (emitFor)
	vclock int64
	// retxAt is the armed retransmission deadline (-1 when disarmed);
	// retxTimeout is the current backoff value; retxFor is the (tag,
	// phase) the timer was armed for.
	retxAt       int64
	retxTimeout  int64
	retxForTag   Tag
	retxForPhase int
	// watchAt / watchTag arm the stall watchdog for a configuration.
	watchAt    int64
	watchTag   Tag
	retriggers int
	lastView   *View
}

// Run executes the protocol among every live switch: the triggers fire (in
// AtUS order), the switches exchange messages until the event queue
// drains, and the final views are returned. The channel is private and
// loss-free — every message arrives once, on time and in order — so no
// retransmission or watchdog timer is armed and Messages is the
// protocol's own count.
func (r *Runner) Run(triggers []Trigger) (*Result, error) {
	return r.runLossFree(triggers, nil)
}

func (r *Runner) runLossFree(triggers []Trigger, region Region) (*Result, error) {
	chn, err := ctrlnet.New(ctrlnet.Config{}) // the zero Config loses nothing
	if err != nil {
		return nil, err
	}
	ur, err := r.run(triggers, region, chn, Hardening{}, false)
	if err != nil {
		return nil, err
	}
	return &ur.Result, nil
}

// RunOver executes the protocol over a caller-supplied transport among
// the given region (nil = every live switch; every trigger must lie
// inside it) — the in-memory fault injector (ctrlnet.New) for reproducible
// simulation of a lossy control plane, or a socket transport
// (ctrlnet.UDP) when this process hosts only some of the switches and the
// rest answer from across real sockets. The runner keeps its virtual
// clocks (socket envelopes carry the sender's virtual stamps), drains
// asynchronous arrivals every event step, and treats an empty Flush as
// quiescence. Channel stats are populated only when the transport keeps
// them (the in-memory Net); the transport is NOT closed — the caller owns
// its lifecycle.
func (r *Runner) RunOver(triggers []Trigger, region Region, tr ctrlnet.Transport, h Hardening) (*UnreliableResult, error) {
	return r.run(triggers, region, tr, h, true)
}

// evloop is the state of one run: the participants, the event queue and
// the result being accumulated.
type evloop struct {
	r   *Runner
	chn ctrlnet.Transport
	h   Hardening
	// repair arms the retransmission and watchdog timers and bounds the
	// run. Run and RunScoped leave it off: their channel cannot lose a
	// message, so the run terminates on its own, and a timer that fires
	// anyway (the invite timeout is shorter than a high-radix neighbor's
	// processing queue) would only add messages.
	repair bool
	nodes  map[topology.NodeID]*unode
	order  []topology.NodeID // the participants, sorted
	events ueventHeap
	seq    int64
	res    *UnreliableResult
	// codecErr is the first message the wire codec refused to encode. That
	// is a bug in this package, not line noise, so the run returns it.
	codecErr error
	// sent and sentWire are the last message encoded and its image: one
	// message to several neighbors (invites, a distribute to every child)
	// is encoded once, and every copy on the wire aliases the image.
	sent     message
	sentWire []byte
	// links is the decode cache. Encoding a section primes it with the
	// sender's slice, which every receiver of those bytes then adopts.
	links linkCache
}

func (lp *evloop) push(ev *uevent) {
	ev.seq = lp.seq
	lp.seq++
	heap.Push(&lp.events, ev)
}

// deliver schedules what the transport handed back; images addressed to a
// switch outside the run are dropped.
func (lp *evloop) deliver(ds []ctrlnet.Delivery) {
	for _, d := range ds {
		if _, ok := lp.nodes[d.To]; ok {
			lp.push(&uevent{atUS: d.AtUS, kind: uevDeliver, node: d.To, wire: d.Wire})
		}
	}
}

// emitFor builds the machine's emit callback for one node: encode, offer
// to the channel, schedule the deliveries. Every protocol message crosses
// the wire codec (package proto), exactly as the line-card software would
// serialize it, so the byte counter reflects real control-plane traffic.
func (lp *evloop) emitFor(st *unode) emitFunc {
	return func(to topology.NodeID, m message) {
		if _, ok := lp.nodes[to]; !ok {
			return // out-of-region or dead neighbor: the link is down
		}
		m.from = st.id
		m.vtime = st.vclock + linkDelayUS
		if !sameMessage(m, lp.sent) {
			wire, err := encodeMessage(m)
			if err != nil {
				if lp.codecErr == nil {
					lp.codecErr = fmt.Errorf("reconfig: switch %d -> %d: %w (bug)", st.id, to, err)
				}
				return
			}
			lp.sent, lp.sentWire = m, wire
			if len(m.links) > 0 {
				lp.links = linkCache{wire: proto.SectionOf(wire, len(m.links)), links: m.links}
			}
		}
		wire := lp.sentWire
		lp.res.Bytes += int64(len(wire))
		ds, err := lp.chn.Send(st.id, to, wire, m.vtime)
		if err != nil {
			// A structural send failure (closed socket, unknown peer)
			// is a loss to the protocol; retransmission owns repair.
			return
		}
		lp.deliver(ds)
	}
}

// sameMessage reports whether a and b encode to the same image: equal
// fields and links on the same backing array (never compared element-wise).
func sameMessage(a, b message) bool {
	return a.kind == b.kind && a.tag == b.tag && a.from == b.from && a.vtime == b.vtime &&
		a.accept == b.accept && a.depth == b.depth && len(a.links) == len(b.links) &&
		(len(a.links) == 0 || &a.links[0] == &b.links[0])
}

// handle advances the node's clock past the event and the processing
// delay, runs the machine on m, and settles views and timers.
func (lp *evloop) handle(st *unode, atUS int64, m message) {
	if atUS > st.vclock {
		st.vclock = atUS
	}
	st.vclock += processDelayUS
	st.mc.handle(m, st.emit)
	lp.postHandle(st)
}

// postHandle runs after a node handles anything: publish a fresh view
// (stamped with the local virtual clock — the machine itself is
// clock-free) and arm the timers.
func (lp *evloop) postHandle(st *unode) {
	if st.mc.view != st.lastView {
		st.lastView = st.mc.view
		v := *st.mc.view
		v.CompletedAtUS = st.vclock
		lp.res.Views[st.id] = &v
	}
	if !lp.repair {
		return
	}
	if !st.mc.obligated() {
		st.retxAt = -1
		st.watchAt = -1
		return
	}
	tag := st.mc.active.tag
	if st.watchAt < 0 || st.watchTag != tag {
		st.watchTag = tag
		st.watchAt = st.vclock + lp.h.WatchdogUS
		lp.push(&uevent{atUS: st.watchAt, kind: uevWatchdog, node: st.id})
	}
	// Re-arm the retransmission timer whenever the wait changes: a new
	// configuration or a new phase gets a fresh timeout on that phase's
	// timescale; an unchanged wait keeps its armed deadline (and its
	// backoff).
	ph := retxPhase(st.mc)
	if st.retxAt >= 0 && st.retxForTag == tag && st.retxForPhase == ph {
		return
	}
	st.retxForTag = tag
	st.retxForPhase = ph
	switch ph {
	case phaseInvite:
		st.retxTimeout = retxTimeoutUS
	case phaseReport:
		st.retxTimeout = reportRetxUS
	default:
		// phaseChildren: the children's own timers repair their
		// subtrees; nothing for this node to retransmit.
		st.retxAt = -1
		return
	}
	st.retxAt = st.vclock + st.retxTimeout
	lp.push(&uevent{atUS: st.retxAt, kind: uevRetx, node: st.id})
}

// run executes the protocol among region (nil = every live switch) over
// chn.
func (r *Runner) run(triggers []Trigger, region Region, chn ctrlnet.Transport, h Hardening, repair bool) (*UnreliableResult, error) {
	lp, err := r.newLoop(triggers, region, chn, h, repair)
	if err != nil {
		return nil, err
	}
	return lp.run()
}

// newLoop builds the participants' machines and queues the triggers.
func (r *Runner) newLoop(triggers []Trigger, region Region, chn ctrlnet.Transport, h Hardening, repair bool) (*evloop, error) {
	if len(triggers) == 0 {
		return nil, errors.New("reconfig: no triggers")
	}
	h = h.withDefaults()
	lp := &evloop{
		r: r, chn: chn, h: h, repair: repair,
		nodes: make(map[topology.NodeID]*unode),
		res:   &UnreliableResult{Result: Result{Views: make(map[topology.NodeID]*View)}},
	}
	for _, s := range r.switches {
		if region != nil && !region[s] {
			continue
		}
		node, _ := r.cfg.Topology.Node(s)
		// The machine's adjacency is filtered to participants: in a
		// scoped reconfiguration, out-of-region neighbors are not
		// invited (their links are still reported as facts via own).
		var adj []topology.NodeID
		for _, nb := range r.adj[s] {
			if region == nil || region[nb] {
				adj = append(adj, nb)
			}
		}
		st := &unode{
			id: s,
			mc: &machine{
				id:          s,
				uid:         node.UID,
				adj:         adj,
				own:         r.own[s],
				stored:      Tag{Epoch: r.cfg.BaseEpoch},
				dupGuardOff: h.UnsafeNoDupGuard,
			},
			retxAt:  -1,
			watchAt: -1,
		}
		st.emit = lp.emitFor(st)
		lp.nodes[s] = st
		lp.order = append(lp.order, s)
	}
	sort.Slice(lp.order, func(i, j int) bool { return lp.order[i] < lp.order[j] })

	for _, tr := range triggers {
		if _, ok := lp.nodes[tr.Node]; !ok {
			return nil, fmt.Errorf("%w: %d", ErrBadTrigger, tr.Node)
		}
		lp.push(&uevent{atUS: tr.AtUS, kind: uevTrigger, node: tr.Node})
	}
	return lp, nil
}

// run processes events until the queue and the channel are both empty (or
// a bound of a repairing run is hit) and sums up the result.
func (lp *evloop) run() (*UnreliableResult, error) {
	r, chn := lp.r, lp.chn
	// A blocking transport means real messages with real latencies: the
	// virtual clock must not outrun the wall clock, or the runner would
	// burn its retransmission timers (and the whole maxVirtualUS budget)
	// at CPU speed before a single datagram crosses the kernel. Timer
	// events are therefore paced 1 virtual µs = 1 wall µs, waiting on the
	// transport meanwhile. The in-memory Net is synchronous (no Waiter)
	// and keeps the pure event-simulation fast path.
	waiter, realtime := chn.(ctrlnet.Waiter)
	var wallStart time.Time
	if realtime {
		wallStart = time.Now()
	}

	ur := lp.res
	processed := 0
	for lp.codecErr == nil {
		// Asynchronous transports surface arrivals between events; drain
		// them every step so socket traffic interleaves with local timers.
		// (The in-memory Net's Poll is always nil — its deliveries came
		// back from Send.)
		lp.deliver(chn.Poll())
		if len(lp.events) == 0 {
			// Release whatever the transport still holds — reordered
			// messages behind the in-memory injector, or datagrams still
			// crossing the kernel; if nothing surfaces, the run has
			// quiesced.
			ds := chn.Flush()
			if len(ds) == 0 {
				break
			}
			lp.deliver(ds)
			continue
		}
		ev := heap.Pop(&lp.events).(*uevent)
		if realtime && (ev.kind == uevRetx || ev.kind == uevWatchdog) {
			if ahead := time.Duration(ev.atUS)*time.Microsecond - time.Since(wallStart); ahead > 0 {
				if ds := waiter.Wait(ahead); len(ds) > 0 {
					// Real arrivals supersede the timer: requeue it (its
					// seq keeps heap order stable) and handle them first.
					heap.Push(&lp.events, ev)
					lp.deliver(ds)
					continue
				}
			}
		}
		processed++
		if lp.repair && (ev.atUS > maxVirtualUS || processed > maxEvents) {
			break
		}
		st := lp.nodes[ev.node]
		switch ev.kind {
		case uevTrigger:
			ur.Messages++
			lp.handle(st, ev.atUS, message{kind: kindTrigger})
		case uevDeliver:
			m, err := decodeMessage(ev.wire, &lp.links)
			if err != nil {
				ur.CRCRejects++
				continue
			}
			if m.vtime > st.vclock {
				st.vclock = m.vtime
			}
			ur.Messages++
			lp.handle(st, ev.atUS, m)
		case uevRetx:
			if st.retxAt != ev.atUS {
				continue // superseded timer
			}
			st.retxAt = -1
			if ev.atUS > st.vclock {
				st.vclock = ev.atUS
			}
			if !st.mc.obligated() || st.mc.active.tag != st.retxForTag ||
				retxPhase(st.mc) != st.retxForPhase {
				lp.postHandle(st)
				continue
			}
			ur.Retransmits++
			st.mc.retransmit(st.emit)
			st.retxTimeout *= 2
			maxTO := int64(retxMaxUS)
			if st.retxForPhase == phaseReport {
				maxTO = 2 * reportRetxUS
			}
			if st.retxTimeout > maxTO {
				st.retxTimeout = maxTO
			}
			st.retxAt = st.vclock + st.retxTimeout
			lp.push(&uevent{atUS: st.retxAt, kind: uevRetx, node: ev.node})
		case uevWatchdog:
			if st.watchAt != ev.atUS {
				continue // superseded watchdog
			}
			st.watchAt = -1
			if !st.mc.obligated() || st.mc.active.tag != st.watchTag {
				lp.postHandle(st)
				continue
			}
			if st.retriggers >= maxRetriggersPerNode {
				continue // give up: permanently stuck (e.g. partitioned)
			}
			st.retriggers++
			ur.Retriggers++
			lp.handle(st, ev.atUS, message{kind: kindTrigger})
		}
	}
	if lp.codecErr != nil {
		return nil, lp.codecErr
	}

	if st, ok := chn.(ctrlnet.Stater); ok {
		ur.Channel = st.Stats()
	}
	var winner Tag
	for _, v := range ur.Views {
		if winner.Less(v.Tag) {
			winner = v.Tag
		}
	}
	for _, v := range ur.Views {
		if v.CompletedAtUS > ur.MaxCompletionUS {
			ur.MaxCompletionUS = v.CompletedAtUS
		}
		if v.Tag == winner && v.Depth > ur.TreeDepth {
			ur.TreeDepth = v.Depth
		}
	}
	ur.Converged = r.convergedAmong(lp.order, ur.Views)
	return ur, nil
}

// convergedAmong checks that, within every connected component of the
// participant set that contains at least one completed switch, every
// participant completed the same configuration with identical links.
func (r *Runner) convergedAmong(participants []topology.NodeID, views map[topology.NodeID]*View) bool {
	inRun := make(map[topology.NodeID]bool, len(participants))
	for _, s := range participants {
		inRun[s] = true
	}
	seen := make(map[topology.NodeID]bool)
	for _, s := range participants {
		if seen[s] {
			continue
		}
		var comp []topology.NodeID
		stack := []topology.NodeID{s}
		seen[s] = true
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, n)
			for _, nb := range r.adj[n] {
				if inRun[nb] && !seen[nb] {
					seen[nb] = true
					stack = append(stack, nb)
				}
			}
		}
		var ref *View
		for _, n := range comp {
			if v := views[n]; v != nil {
				if ref == nil || ref.Tag.Less(v.Tag) {
					ref = v
				}
			}
		}
		if ref == nil {
			continue // untriggered component: nothing to agree on
		}
		for _, n := range comp {
			v := views[n]
			if v == nil || v.Tag != ref.Tag || !equalRecs(v.Links, ref.Links) {
				return false
			}
		}
	}
	return true
}
