package simnet

import (
	"fmt"
	"reflect"

	"repro/internal/cell"
	"repro/internal/switchnode"
	"repro/internal/topology"
)

// Flow-level fast-forward.
//
// A network carrying only constant-bit-rate guaranteed traffic settles
// into a state that is periodic with the frame: the same injections, the
// same crossbar connections, the same deliveries, one frame later with
// sequence numbers advanced by each circuit's CellsPerFrame. FastForward
// exploits that: it proves periodicity by direct comparison — capture a
// time-normalized signature of all mutable state, run one frame of real
// slots, capture again — and when the signatures match, the counter deltas
// measured over that probe frame are replicated arithmetically over as
// many whole frames as the caller asked for, and the surviving state
// (in-flight cells, buffered cells, sequence counters) is shifted into the
// future. Slot-level simulation resumes exactly where a real run would
// have been.
//
// Exactness boundary. Everything DeepEqual-comparable is exact after a
// skip: NetStats, HostStats (including the latency histograms, which keep
// raw samples and are replayed sample-for-sample), Snapshot, per-VC
// delivered counts, obs counters and obs histograms (replayed through
// ObserveN). Three things are approximated or skipped, by design:
//
//   - obs Series (ring-buffer time series) get no samples for skipped
//     slots — they are sparse across a skip. E31's error-bound experiment
//     quantifies the effect.
//   - Packets() does not materialize packet payloads for skipped slots
//     (PacketsReassembled still advances exactly).
//   - Trace events are not synthesized for skipped slots; a configured
//     Tracer therefore disables skipping entirely and FastForward becomes
//     plain Run.
type ffDelta struct {
	steady  bool
	net     NetStats
	obsInj  int64
	obsDel  int64
	links   []int64
	sw      []switchnode.Stats
	hosts   []ffHostDelta
	circSeq []uint64 // per circOrder position: nextSeq advance per period
	circDel []int64  // per circOrder position: cells delivered per period
}

type ffHostDelta struct {
	id                              topology.NodeID
	sent, recv, ooo, reasm, corrupt int64
	latBE0, latG0, pkt0             int // histogram sample counts at probe start
}

// ffCapture snapshots every counter the probe will difference.
func (n *Network) ffCapture() *ffDelta {
	d := &ffDelta{
		net:     n.stats,
		obsInj:  n.obsInjected.Value(),
		obsDel:  n.obsDelivered.Value(),
		links:   append([]int64(nil), n.linkCells...),
		sw:      make([]switchnode.Stats, len(n.switchByIdx)),
		circSeq: make([]uint64, len(n.circOrder)),
		circDel: make([]int64, len(n.circOrder)),
	}
	for i, sw := range n.switchByIdx {
		d.sw[i] = sw.Stats()
	}
	for i, c := range n.circOrder {
		d.circSeq[i] = c.nextSeq
		d.circDel[i] = n.deliveredVC[c.VC]
	}
	for _, id := range n.g.Hosts() {
		h := n.hosts[id]
		d.hosts = append(d.hosts, ffHostDelta{
			id:      id,
			sent:    h.stats.CellsSent,
			recv:    h.stats.CellsReceived,
			ooo:     h.stats.OutOfOrder,
			reasm:   h.stats.PacketsReassembled,
			corrupt: h.stats.PacketsCorrupt,
			latBE0:  h.stats.LatencyByClass[cell.BestEffort].Count(),
			latG0:   h.stats.LatencyByClass[cell.Guaranteed].Count(),
			pkt0:    h.stats.PacketLatency.Count(),
		})
	}
	return d
}

// ffDiff turns a probe-start capture into per-period deltas.
func (n *Network) ffDiff(d *ffDelta) *ffDelta {
	d.steady = true
	s := n.stats
	d.net = NetStats{
		DeliveredCells:   s.DeliveredCells - d.net.DeliveredCells,
		DroppedInFlight:  s.DroppedInFlight - d.net.DroppedInFlight,
		DroppedReroute:   s.DroppedReroute - d.net.DroppedReroute,
		Slots:            s.Slots - d.net.Slots,
		IdleStepsSkipped: s.IdleStepsSkipped - d.net.IdleStepsSkipped,
	}
	d.obsInj = n.obsInjected.Value() - d.obsInj
	d.obsDel = n.obsDelivered.Value() - d.obsDel
	for i := range d.links {
		d.links[i] = n.linkCells[i] - d.links[i]
	}
	for i, sw := range n.switchByIdx {
		now := sw.Stats()
		was := d.sw[i]
		d.sw[i] = switchnode.Stats{
			ArrivedBestEffort:    now.ArrivedBestEffort - was.ArrivedBestEffort,
			ArrivedGuaranteed:    now.ArrivedGuaranteed - was.ArrivedGuaranteed,
			DroppedBestEffort:    now.DroppedBestEffort - was.DroppedBestEffort,
			DroppedGuaranteed:    now.DroppedGuaranteed - was.DroppedGuaranteed,
			DepartedBestEffort:   now.DepartedBestEffort - was.DepartedBestEffort,
			DepartedGuaranteed:   now.DepartedGuaranteed - was.DepartedGuaranteed,
			Slots:                now.Slots - was.Slots,
			PIMIterationsTotal:   now.PIMIterationsTotal - was.PIMIterationsTotal,
			GuaranteedSlotsFree:  now.GuaranteedSlotsFree - was.GuaranteedSlotsFree,
			GuaranteedSlotsFired: now.GuaranteedSlotsFired - was.GuaranteedSlotsFired,
		}
		// A best-effort matcher invocation advances private RNG state the
		// replication cannot replay; it cannot occur in a guaranteed-only
		// steady phase, but refuse the skip if it somehow did.
		if d.sw[i].PIMIterationsTotal != 0 {
			d.steady = false
		}
	}
	for i, c := range n.circOrder {
		d.circSeq[i] = c.nextSeq - d.circSeq[i]
		d.circDel[i] = n.deliveredVC[c.VC] - d.circDel[i]
	}
	for i := range d.hosts {
		h := n.hosts[d.hosts[i].id]
		d.hosts[i].sent = h.stats.CellsSent - d.hosts[i].sent
		d.hosts[i].recv = h.stats.CellsReceived - d.hosts[i].recv
		d.hosts[i].ooo = h.stats.OutOfOrder - d.hosts[i].ooo
		d.hosts[i].reasm = h.stats.PacketsReassembled - d.hosts[i].reasm
		d.hosts[i].corrupt = h.stats.PacketsCorrupt - d.hosts[i].corrupt
	}
	return d
}

// sigCell is a time-normalized cell: its age and its distance behind the
// circuit's next sequence number replace the absolute stamp.
type sigCell struct {
	VC      cell.VCI
	EOP     bool
	Sig     bool
	Class   cell.Class
	Payload [cell.PayloadSize]byte
	Age     int64
	SeqOff  uint64
}

type sigFlight struct {
	Rel    int64 // arrive − now
	C      sigCell
	To     topology.NodeID
	Link   topology.LinkID
	IsHost bool
}

type sigBuffered struct {
	SwIdx      int
	Input      int
	Guaranteed bool
	Output     int
	C          sigCell
}

type sigRR struct {
	SwIdx      int
	Input      int
	Guaranteed bool
	Output     int
	VC         cell.VCI
}

type steadySig struct {
	Flights  []sigFlight
	Buffered []sigBuffered
	RR       []sigRR
	Pending  []int // reassembler partials per host, sorted host order
}

// steadySignature captures all state whose evolution the skip must prove
// periodic, normalized by the current slot and per-circuit sequence
// heads. Two matching signatures one frame apart mean the frame's deltas
// repeat exactly.
func (n *Network) steadySignature() *steadySig {
	heads := make(map[cell.VCI]uint64, len(n.circOrder))
	for _, c := range n.circOrder {
		heads[c.VC] = c.nextSeq
	}
	norm := func(c cell.Cell) sigCell {
		return sigCell{
			VC:      c.VC,
			EOP:     c.EndOfPacket,
			Sig:     c.Signaling,
			Class:   c.Class,
			Payload: c.Payload,
			Age:     n.slot - c.Stamp.EnqueuedAt,
			SeqOff:  heads[c.VC] - c.Stamp.Seq,
		}
	}
	sig := &steadySig{}
	for _, f := range n.inflight {
		sig.Flights = append(sig.Flights, sigFlight{
			Rel:    f.arrive - n.slot,
			C:      norm(f.c),
			To:     f.to,
			Link:   f.link,
			IsHost: f.isHost,
		})
	}
	for idx, sw := range n.switchByIdx {
		idx := idx
		sw.ForEachBuffered(func(input int, gtd bool, c cell.Cell, output int) {
			sig.Buffered = append(sig.Buffered, sigBuffered{
				SwIdx: idx, Input: input, Guaranteed: gtd, Output: output, C: norm(c),
			})
		})
		sw.ForEachRR(func(input int, gtd bool, output int, vc cell.VCI) {
			sig.RR = append(sig.RR, sigRR{
				SwIdx: idx, Input: input, Guaranteed: gtd, Output: output, VC: vc,
			})
		})
	}
	for _, id := range n.g.Hosts() {
		sig.Pending = append(sig.Pending, n.hosts[id].reasm.Pending())
	}
	return sig
}

// ffEligible reports whether the network is in a candidate steady phase:
// no circuit has cells queued at its source host — so the only injectors
// are CBR guaranteed circuits, which are periodic by construction — and no
// ingress credits are circulating. Idle circuits (best-effort or
// guaranteed) are inert and allowed; any of their cells still draining
// through the fabric make the state signature differ across the probe,
// which defers the skip until they are gone. Faults need no check — a
// steady faulty state is periodic too (the same cells drop each frame)
// and replicates exactly. Nor do sleeping switches: one woken during the
// probe was woken by a cell landing on an empty frame, a best-effort
// cell, whose matching marks the probe unsteady (see ffDiff).
func (n *Network) ffEligible() bool {
	for _, c := range n.circOrder {
		if c.queued() > 0 {
			return false
		}
	}
	return len(n.credits) == 0
}

// framePeriod returns the shared frame size in slots (the candidate
// period), or 0 with no switches.
func (n *Network) framePeriod() int64 {
	if len(n.switchByIdx) == 0 {
		return 0
	}
	return int64(n.switchByIdx[0].Frame().Slots())
}

// SetCBR turns a guaranteed circuit into a constant-bit-rate synthetic
// source: at every pacing slot its pending queue cannot cover, the network
// injects a single-cell packet (fill bytes, valid AAL5 trailer) with a
// fresh sequence number, exactly as a host calling SendPacket every
// interval would. CBR circuits never idle, which is what lets a pure-CBR
// phase reach the periodic steady state FastForward can skip.
func (n *Network) SetCBR(vc cell.VCI, fill byte) error {
	c, ok := n.circuits[vc]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoCircuit, vc)
	}
	if c.Class != cell.Guaranteed {
		return fmt.Errorf("%w: %d", ErrNotGuaranteed, vc)
	}
	var pkt [40]byte // 40 + 8-byte trailer = one 48-byte payload
	for i := range pkt {
		pkt[i] = fill
	}
	cells, err := cell.Segment(vc, cell.Guaranteed, pkt[:])
	if err != nil || len(cells) != 1 {
		return fmt.Errorf("simnet: cbr template: %v", err)
	}
	c.cbr = true
	c.cbrCell = cells[0]
	return nil
}

// FastForward advances the network exactly slots slots, like Run, but
// replaces provably steady whole frames with an analytic update: when a
// frame-long probe shows the time-normalized state signature unchanged,
// the probe's counter deltas are replicated over the remaining whole
// frames in O(state) instead of O(slots), and in-flight and buffered
// cells are shifted into the future. It returns the number of slots
// covered analytically (0 means every slot was simulated). See the
// package comments above for the exactness boundary; with a Tracer
// configured no slot is ever skipped.
func (n *Network) FastForward(slots int64) (skipped int64) {
	for slots > 0 {
		p := n.framePeriod()
		// A skip needs one whole probe frame plus at least one whole
		// frame to replicate over.
		if n.cfg.Tracer != nil || p <= 0 || slots < 2*p || !n.ffEligible() {
			n.Step()
			slots--
			continue
		}
		sig0 := n.steadySignature()
		probe := n.ffCapture()
		for i := int64(0); i < p; i++ {
			n.Step()
		}
		slots -= p
		if !reflect.DeepEqual(sig0, n.steadySignature()) {
			continue // still transient; the probe slots were real progress
		}
		d := n.ffDiff(probe)
		if !d.steady {
			continue
		}
		m := slots / p
		if m <= 0 {
			continue
		}
		n.ffApply(d, m, p)
		slots -= m * p
		skipped += m * p
	}
	return skipped
}

// ffApply replicates one steady frame's deltas m times and shifts the
// surviving state m×p slots into the future.
func (n *Network) ffApply(d *ffDelta, m, p int64) {
	mp := m * p

	// Sequence-number advance per circuit, for shifting stamped cells.
	shift := make(map[cell.VCI]uint64, len(n.circOrder))
	for i, c := range n.circOrder {
		shift[c.VC] = d.circSeq[i] * uint64(m)
		c.nextSeq += d.circSeq[i] * uint64(m)
		n.deliveredVC[c.VC] += d.circDel[i] * m
	}

	// Network counters.
	n.slot += mp
	n.stats.DeliveredCells += d.net.DeliveredCells * m
	n.stats.DroppedInFlight += d.net.DroppedInFlight * m
	n.stats.DroppedReroute += d.net.DroppedReroute * m
	n.stats.Slots += d.net.Slots * m
	n.stats.IdleStepsSkipped += d.net.IdleStepsSkipped * m
	for i := range n.linkCells {
		n.linkCells[i] += d.links[i] * m
	}
	n.obsInjected.Add(0, d.obsInj*m)
	n.obsDelivered.Add(0, d.obsDel*m)

	// Switches: counters replicate; buffered cells shift. Sleeping
	// switches have zero deltas and empty buffers — their clocks settle
	// from the enlarged [sleepSince, slot) span at the next wake, and
	// Stats() already folds the pending span in.
	seqShift := func(vc cell.VCI) uint64 { return shift[vc] }
	for i, sw := range n.switchByIdx {
		sw.ApplySteady(d.sw[i], m)
		sw.ShiftStamps(mp, seqShift)
	}

	// In-flight cells shift with their arrival times.
	for i := range n.inflight {
		f := &n.inflight[i]
		f.arrive += mp
		f.c.Stamp.EnqueuedAt += mp
		f.c.Stamp.Seq += shift[f.c.VC]
	}

	// Hosts: scalar counters replicate; raw-sample histograms replay
	// their probe tail m more times (exact, order and all); the bucketed
	// obs twins replay the same samples through ObserveN; sequence
	// tracking advances with the circuits.
	for _, hd := range d.hosts {
		h := n.hosts[hd.id]
		h.stats.CellsSent += hd.sent * m
		h.stats.CellsReceived += hd.recv * m
		h.stats.OutOfOrder += hd.ooo * m
		h.stats.PacketsReassembled += hd.reasm * m
		h.stats.PacketsCorrupt += hd.corrupt * m
		be := h.stats.LatencyByClass[cell.BestEffort]
		g := h.stats.LatencyByClass[cell.Guaranteed]
		for _, v := range be.Tail(hd.latBE0) {
			n.obsLatBE.ObserveN(0, v, m)
		}
		for _, v := range g.Tail(hd.latG0) {
			n.obsLatG.ObserveN(0, v, m)
		}
		be.ReplaySince(hd.latBE0, m)
		g.ReplaySince(hd.latG0, m)
		h.stats.PacketLatency.ReplaySince(hd.pkt0, m)
	}
	for i, c := range n.circOrder {
		if d.circDel[i] <= 0 {
			continue
		}
		dst := n.hosts[c.Path[len(c.Path)-1]]
		if dst != nil && dst.gotAny[c.VC] {
			dst.lastSeq[c.VC] += d.circSeq[i] * uint64(m)
		}
	}
}
