package ctrlnet

import "repro/internal/topology"

// Transport is the pluggable control-plane channel: the surface a
// protocol runner (package reconfig's event loop, the multi-tenant
// VC service in package svc) uses to move encoded wire messages between
// named nodes without knowing whether the bytes cross a Go data structure
// or a kernel socket.
//
// Two families implement it:
//
//   - The in-memory fault-injected Net in this package: synchronous and
//     single-threaded, every fault decided by one seeded RNG, so runs are
//     exactly reproducible. Send returns the resulting deliveries
//     immediately and Poll always returns nil.
//   - Socket transports (UDP in this package) between real processes:
//     Send writes a datagram and returns nil, and arrivals surface
//     asynchronously through Poll / Flush, stamped with the virtual
//     arrival time the sender put in the envelope.
//
// Node ids name transport endpoints. For the reconfiguration control
// plane they are topology switch ids; for the VC service they are an
// independent address space (the server plus one id per tenant
// endpoint) — the transport never interprets them beyond routing.
type Transport interface {
	// Send offers one wire message from -> to, nominally arriving at
	// arriveUS (virtual µs). Synchronous transports return the resulting
	// deliveries (possibly none — a loss; possibly several — duplication
	// or a released held message). Asynchronous transports return nil and
	// an error only for structural problems (unknown peer, closed
	// socket); lost datagrams are silent, exactly like real UDP.
	Send(from, to topology.NodeID, wire []byte, arriveUS int64) ([]Delivery, error)
	// Poll drains deliveries that arrived since the last call without
	// blocking. The in-memory Net always returns nil: its deliveries are
	// returned synchronously by Send.
	Poll() []Delivery
	// Flush releases everything still pending when the caller's event
	// queue has drained: the in-memory Net returns held (reordered)
	// messages never released by later traffic; a socket transport waits
	// a short settle period for datagrams still crossing the kernel. An
	// empty result means the channel has quiesced.
	Flush() []Delivery
	// Close releases transport resources (sockets, receive goroutines).
	// The in-memory Net has none; its Close is a no-op.
	Close() error
}

// Send implements Transport over the in-memory fault injector: it is
// Transmit with the error slot of the interface (the in-memory channel
// cannot fail structurally — losses are fault decisions, not errors).
func (n *Net) Send(from, to topology.NodeID, wire []byte, arriveUS int64) ([]Delivery, error) {
	return n.Transmit(from, to, wire, arriveUS), nil
}

// Poll implements Transport: the in-memory channel delivers synchronously
// from Send, so there is never anything to poll.
func (n *Net) Poll() []Delivery { return nil }

// Close implements Transport as a no-op.
func (n *Net) Close() error { return nil }

// Stater is implemented by transports that keep fault-decision counters
// (the in-memory Net). Drivers that want channel accounting type-assert
// for it, so socket transports are not forced to invent fake stats.
type Stater interface {
	Stats() Stats
}

var _ Transport = (*Net)(nil)
var _ Stater = (*Net)(nil)
