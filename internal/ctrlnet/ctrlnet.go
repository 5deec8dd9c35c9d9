// Package ctrlnet models the unreliable control network AN2's inter-switch
// protocol messages actually travel over. The paper (§2, §6) is explicit
// that control messages share the same failure-prone links as data cells:
// they can be lost, duplicated, delayed, reordered, or corrupted in flight,
// and a link or switch failure partitions the control plane exactly as it
// partitions the data plane. Delivering every message once, on time and in
// order — what reconfig.Run does, and what this package's zero Config
// does — is fine for measuring fault-free convergence, a fiction for
// arguing robustness. This package supplies the fault model: a
// deterministic, seeded injector that a runner threads every encoded wire
// message through.
//
// Faults are decided per message from a single *rand.Rand, so a run is
// exactly reproducible from its seed as long as messages are presented in
// a deterministic order (reconfig's event loop is single-threaded for
// precisely this reason). Supported faults:
//
//   - Drop: the message vanishes (lost control packet).
//   - Duplicate: a second copy arrives a little later (link-level retry
//     that double-delivered).
//   - Delay: a copy arrives after a bounded extra latency.
//   - Reorder: the message is held back and released just after the next
//     message on the same directed link — a strict FIFO violation, not
//     merely a longer delay.
//   - Corrupt: one bit of the wire image is flipped; the receiver's CRC
//     check (package proto) must reject it, so corruption exercises the
//     checksum path for real and otherwise behaves as a loss.
//   - Bursts: windows of virtual time in which every message is dropped
//     (a control-plane brownout).
//   - Partitions: windows in which a specific pair of nodes cannot
//     exchange messages in either direction.
//
// Fault decisions are made in a fixed precedence order per message:
// partition, then burst, then drop, then corrupt, then delay, then
// reorder, then duplicate. The first four short-circuit: a partitioned,
// burst-dropped, or dropped message rolls no further faults, and a
// corrupted message is delivered mutilated but is never additionally
// delayed, duplicated, or held for reordering — one link-level mishap per
// message, which keeps each fault's observed rate equal to its configured
// probability. Whatever the decision, a message HELD from an earlier
// reorder on the same directed link is released by the next Transmit on
// that link: the "released behind the next message" contract holds even
// when that next message is itself destroyed (see TestHeldReleasedOnEveryOutcome).
//
// The injector never decodes messages; it manipulates opaque wire bytes.
// Whether a mutilated message is detected is the codec's job, and the
// reject counter lives with the receiver.
package ctrlnet

import (
	"fmt"
	"math/rand"

	"repro/internal/obs"
	"repro/internal/topology"
)

// Config sets the per-message fault probabilities (each in [0,1]) and the
// windows of structural outage. The zero value is a perfectly reliable,
// in-order channel.
type Config struct {
	// DropProb is the chance a message is silently lost.
	DropProb float64
	// DupProb is the chance a message is delivered twice.
	DupProb float64
	// ReorderProb is the chance a message is held and released behind the
	// next message on the same directed link.
	ReorderProb float64
	// CorruptProb is the chance one bit of the wire image flips.
	CorruptProb float64
	// DelayProb is the chance a message takes extra latency, uniform in
	// [1, MaxExtraDelayUS].
	DelayProb float64
	// MaxExtraDelayUS bounds delay/duplicate jitter (default 40 µs).
	MaxExtraDelayUS int64
	// Bursts are total-loss windows in virtual time.
	Bursts []Window
	// Partitions cut node pairs (both directions) for a window.
	Partitions []Partition
	// Seed drives every fault decision.
	Seed int64
	// Obs, if set, counts offered and destroyed control messages into the
	// shared registry (ctrl_msgs_total{kind="sent"|"lost"}), so a live
	// /metrics endpoint shows control-plane loss next to the data plane it
	// disturbs. Nil disables at no cost.
	Obs *obs.Registry
}

// Window is a half-open virtual-time interval [FromUS, ToUS).
type Window struct {
	FromUS, ToUS int64
}

// Contains reports whether t lies in the window.
func (w Window) Contains(t int64) bool { return t >= w.FromUS && t < w.ToUS }

// Partition blocks all messages between A and B during the window.
type Partition struct {
	Window
	A, B topology.NodeID
}

// Delivery is one wire image the channel hands the receiver To, at AtUS.
// RecvUS is the receiver's wall clock at socket receive, in µs since the
// Unix epoch — stamped only by the socket transports (zero on the
// in-memory channels, which have no wall clock), and consumed by the
// service plane's queue-wait spans.
type Delivery struct {
	From, To topology.NodeID
	Wire     []byte
	AtUS     int64
	RecvUS   int64
}

// Stats counts the injector's decisions.
type Stats struct {
	Sent             int64 // messages offered to the channel
	Dropped          int64 // lost to DropProb
	BurstDropped     int64 // lost to a burst window
	PartitionDropped int64 // lost to a partition
	Duplicated       int64
	Reordered        int64
	Delayed          int64
	Corrupted        int64
}

// Lost returns every message the channel destroyed outright (corrupted
// messages are delivered, then rejected by the receiver's CRC).
func (s Stats) Lost() int64 { return s.Dropped + s.BurstDropped + s.PartitionDropped }

type pairKey struct {
	from, to topology.NodeID
}

type heldMsg struct {
	wire []byte
	atUS int64
}

// Net is one fault-injecting control network. Not safe for concurrent use:
// determinism requires a single caller presenting messages in a fixed
// order.
type Net struct {
	cfg   Config
	rng   *rand.Rand
	stats Stats
	// held stores at most one reordered message per directed link,
	// released behind the next message on that link (or by Flush).
	held map[pairKey]heldMsg

	// Observability handles (nil without Config.Obs).
	obsSent *obs.Counter
	obsLost *obs.Counter
}

// New builds the injector. An invalid probability (outside [0,1]) errors.
func New(cfg Config) (*Net, error) {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"DropProb", cfg.DropProb}, {"DupProb", cfg.DupProb},
		{"ReorderProb", cfg.ReorderProb}, {"CorruptProb", cfg.CorruptProb},
		{"DelayProb", cfg.DelayProb},
	} {
		if p.v < 0 || p.v > 1 {
			return nil, fmt.Errorf("ctrlnet: %s = %v outside [0,1]", p.name, p.v)
		}
	}
	if cfg.MaxExtraDelayUS <= 0 {
		cfg.MaxExtraDelayUS = 40
	}
	return &Net{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		held:    make(map[pairKey]heldMsg),
		obsSent: cfg.Obs.Counter("ctrl_msgs_total", "kind", "sent"),
		obsLost: cfg.Obs.Counter("ctrl_msgs_total", "kind", "lost"),
	}, nil
}

// Stats returns the decision counters so far.
func (n *Net) Stats() Stats { return n.stats }

// partitioned reports whether from↔to is cut at time t.
func (n *Net) partitioned(from, to topology.NodeID, t int64) bool {
	for _, p := range n.cfg.Partitions {
		if !p.Contains(t) {
			continue
		}
		if (p.A == from && p.B == to) || (p.A == to && p.B == from) {
			return true
		}
	}
	return false
}

// inBurst reports whether t falls in a total-loss window.
func (n *Net) inBurst(t int64) bool {
	for _, b := range n.cfg.Bursts {
		if b.Contains(t) {
			return true
		}
	}
	return false
}

// jitterUS draws a positive extra latency.
func (n *Net) jitterUS() int64 { return 1 + n.rng.Int63n(n.cfg.MaxExtraDelayUS) }

// Transmit offers one wire message nominally arriving at arriveUS and
// returns what the channel actually delivers (possibly nothing, possibly
// several images, possibly a previously held message). A clean delivery
// aliases the image it was handed; corrupted, held and duplicated
// deliveries are copies. Neither side may modify an image after it is
// sent: a sender may offer one image to many receivers, and a receiver may
// keep a delivered image for as long as it likes.
func (n *Net) Transmit(from, to topology.NodeID, wire []byte, arriveUS int64) []Delivery {
	n.stats.Sent++
	n.obsSent.Inc(0)
	key := pairKey{from, to}
	var out []Delivery

	// release appends the held message behind a delivery at t.
	release := func(t int64) {
		if h, ok := n.held[key]; ok {
			delete(n.held, key)
			at := t + 1
			if h.atUS > at {
				at = h.atUS
			}
			out = append(out, Delivery{From: from, To: to, Wire: h.wire, AtUS: at})
		}
	}

	if n.partitioned(from, to, arriveUS) {
		n.stats.PartitionDropped++
		n.obsLost.Inc(0)
		release(arriveUS)
		return out
	}
	if n.inBurst(arriveUS) {
		n.stats.BurstDropped++
		n.obsLost.Inc(0)
		release(arriveUS)
		return out
	}
	if n.cfg.DropProb > 0 && n.rng.Float64() < n.cfg.DropProb {
		n.stats.Dropped++
		n.obsLost.Inc(0)
		release(arriveUS)
		return out
	}
	if n.cfg.CorruptProb > 0 && n.rng.Float64() < n.cfg.CorruptProb {
		n.stats.Corrupted++
		bad := append([]byte(nil), wire...)
		if len(bad) > 0 {
			bit := n.rng.Intn(len(bad) * 8)
			bad[bit/8] ^= 1 << (bit % 8)
		}
		out = append(out, Delivery{From: from, To: to, Wire: bad, AtUS: arriveUS})
		release(arriveUS)
		return out
	}
	if n.cfg.DelayProb > 0 && n.rng.Float64() < n.cfg.DelayProb {
		n.stats.Delayed++
		arriveUS += n.jitterUS()
	}
	if n.cfg.ReorderProb > 0 && n.rng.Float64() < n.cfg.ReorderProb {
		if _, busy := n.held[key]; !busy {
			n.stats.Reordered++
			n.held[key] = heldMsg{wire: append([]byte(nil), wire...), atUS: arriveUS}
			return out
		}
	}
	out = append(out, Delivery{From: from, To: to, Wire: wire, AtUS: arriveUS})
	if n.cfg.DupProb > 0 && n.rng.Float64() < n.cfg.DupProb {
		n.stats.Duplicated++
		out = append(out, Delivery{From: from, To: to, Wire: append([]byte(nil), wire...), AtUS: arriveUS + n.jitterUS()})
	}
	release(arriveUS)
	return out
}

// Flush releases every held (reordered) message — the runner calls it when
// its event queue drains, so a message held behind traffic that never came
// still arrives instead of silently upgrading a reorder to a loss.
func (n *Net) Flush() []Delivery {
	if len(n.held) == 0 {
		return nil
	}
	// Deterministic release order.
	keys := make([]pairKey, 0, len(n.held))
	for k := range n.held {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && less(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	out := make([]Delivery, 0, len(keys))
	for _, k := range keys {
		h := n.held[k]
		delete(n.held, k)
		out = append(out, Delivery{From: k.from, To: k.to, Wire: h.wire, AtUS: h.atUS + n.jitterUS()})
	}
	return out
}

func less(a, b pairKey) bool {
	if a.from != b.from {
		return a.from < b.from
	}
	return a.to < b.to
}
