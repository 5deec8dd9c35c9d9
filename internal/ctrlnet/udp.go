package ctrlnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/topology"
)

// This file is the socket implementation of Transport: control messages
// as real UDP datagrams between real processes. The paper's control plane
// is packets between line-card processors; this transport gives the
// reproduction that deployment shape — an an2sim server process and its
// tenant clients, or two halves of a split control plane, exchanging the
// same proto-encoded frames the in-memory channel carries, over loopback
// or a real network.
//
// Each datagram is a fixed 18-byte envelope followed by the opaque wire
// payload (a proto frame, whose trailing CRC stays load-bearing — a
// truncated or mutilated datagram fails proto.Unmarshal at the consumer):
//
//	byte 0      magic (0xA2)
//	byte 1      envelope version (1)
//	bytes 2-5   from (node id, int32)
//	bytes 6-9   to (node id, int32)
//	bytes 10-17 virtual arrival time (µs)
//
// The envelope carries the sender's virtual arrival stamp so a
// virtual-time driver (reconfig's event loop) sees coherent AtUS
// values whichever transport is plugged in; wall-clock consumers (the VC
// service) simply ignore it. The transport itself injects no faults — UDP
// supplies real loss, reordering, and duplication on real networks, and
// near-reliability on loopback; a fault-modeling run uses the in-memory
// Net instead.
type UDP struct {
	mu     sync.Mutex
	cond   *sync.Cond
	conns  map[topology.NodeID]*net.UDPConn
	anyone *net.UDPConn // fallback send socket (first local conn)
	peers  map[topology.NodeID]*net.UDPAddr
	queue  []Delivery
	closed bool

	sent    int64
	recvd   int64
	rejects int64

	settle time.Duration
	wg     sync.WaitGroup
}

// UDPConfig configures one transport endpoint (one process's view).
type UDPConfig struct {
	// Local maps the node ids this endpoint hosts to their listen
	// addresses; use "127.0.0.1:0" for an ephemeral loopback port. Every
	// local node gets its own socket, so replies address the right node
	// even when one process hosts many.
	Local map[topology.NodeID]string
	// Peers maps remote node ids to their addresses. Static rosters suit
	// fixed control planes; endpoints also LEARN peers from incoming
	// envelopes (last sender address wins), which is how a server reaches
	// tenants on ephemeral ports without any roster.
	Peers map[topology.NodeID]string
	// SettleWait bounds how long Flush waits for in-flight datagrams
	// before declaring the channel quiescent (default 20ms).
	SettleWait time.Duration
}

// Waiter is the optional blocking side of a Transport: Wait parks until a
// delivery arrives or the timeout elapses, then drains the queue. It
// returns early with nothing only once the transport is closed. Socket
// transports implement it; the in-memory Net cannot (it is synchronous),
// so consumers that need blocking receive (the VC service) require it
// explicitly.
type Waiter interface {
	Wait(d time.Duration) []Delivery
}

const (
	udpMagic      = 0xA2
	udpEnvVersion = 1
	udpEnvSize    = 18
	udpMaxPayload = 65507 - udpEnvSize // IPv4 UDP maximum less the envelope
)

// ErrClosed reports use of a closed transport.
var ErrClosed = errors.New("ctrlnet: transport closed")

// ErrNoPeer reports a send to a node with no known address.
var ErrNoPeer = errors.New("ctrlnet: no address for peer")

// NewUDP opens the endpoint's sockets and starts its receive loops.
func NewUDP(cfg UDPConfig) (*UDP, error) {
	if len(cfg.Local) == 0 {
		return nil, errors.New("ctrlnet: UDP endpoint hosts no nodes")
	}
	if cfg.SettleWait <= 0 {
		cfg.SettleWait = 20 * time.Millisecond
	}
	u := &UDP{
		conns:  make(map[topology.NodeID]*net.UDPConn),
		peers:  make(map[topology.NodeID]*net.UDPAddr),
		settle: cfg.SettleWait,
	}
	u.cond = sync.NewCond(&u.mu)
	for id, addr := range cfg.Local {
		la, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			u.Close()
			return nil, fmt.Errorf("ctrlnet: node %d listen %q: %w", id, addr, err)
		}
		conn, err := net.ListenUDP("udp", la)
		if err != nil {
			u.Close()
			return nil, fmt.Errorf("ctrlnet: node %d listen %q: %w", id, addr, err)
		}
		u.conns[id] = conn
		if u.anyone == nil {
			u.anyone = conn
		}
		// A local node is its own peer: loopback self-routing works and
		// other local nodes reach it through the kernel like anyone else.
		u.peers[id] = conn.LocalAddr().(*net.UDPAddr)
	}
	for id, addr := range cfg.Peers {
		pa, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			u.Close()
			return nil, fmt.Errorf("ctrlnet: peer %d addr %q: %w", id, addr, err)
		}
		u.peers[id] = pa
	}
	for _, conn := range u.conns {
		u.wg.Add(1)
		go u.readLoop(conn)
	}
	return u, nil
}

// Addr returns the bound address of a locally hosted node (nil if the
// node is not hosted here) — what a server prints for tenants to dial.
func (u *UDP) Addr(id topology.NodeID) net.Addr {
	u.mu.Lock()
	defer u.mu.Unlock()
	conn, ok := u.conns[id]
	if !ok {
		return nil
	}
	return conn.LocalAddr()
}

// SetPeer adds or replaces a remote node's address after construction.
func (u *UDP) SetPeer(id topology.NodeID, addr string) error {
	pa, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	u.mu.Lock()
	u.peers[id] = pa
	u.mu.Unlock()
	return nil
}

// Counts returns datagrams sent and received by this endpoint and
// envelopes rejected as malformed.
func (u *UDP) Counts() (sent, received, rejected int64) {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.sent, u.recvd, u.rejects
}

func (u *UDP) readLoop(conn *net.UDPConn) {
	defer u.wg.Done()
	buf := make([]byte, 65536)
	for {
		n, from, err := conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		u.mu.Lock()
		if u.closed {
			u.mu.Unlock()
			return
		}
		if n < udpEnvSize || buf[0] != udpMagic || buf[1] != udpEnvVersion {
			u.rejects++
			u.mu.Unlock()
			continue
		}
		src := topology.NodeID(int32(binary.BigEndian.Uint32(buf[2:])))
		dst := topology.NodeID(int32(binary.BigEndian.Uint32(buf[6:])))
		atUS := int64(binary.BigEndian.Uint64(buf[10:]))
		// Learn (or refresh) the sender's address so replies need no
		// roster; tenants behind ephemeral ports stay reachable as long
		// as they keep talking.
		u.peers[src] = from
		u.queue = append(u.queue, Delivery{
			From:   src,
			To:     dst,
			Wire:   append([]byte(nil), buf[udpEnvSize:n]...),
			AtUS:   atUS,
			RecvUS: time.Now().UnixMicro(),
		})
		u.recvd++
		u.cond.Broadcast()
		u.mu.Unlock()
	}
}

// Send implements Transport: one datagram per message. Deliveries always
// surface asynchronously (via Poll / Wait / Flush), so the synchronous
// result is always nil.
func (u *UDP) Send(from, to topology.NodeID, wire []byte, arriveUS int64) ([]Delivery, error) {
	if len(wire) > udpMaxPayload {
		return nil, fmt.Errorf("ctrlnet: %d-byte message exceeds UDP payload limit %d", len(wire), udpMaxPayload)
	}
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil, ErrClosed
	}
	dst, ok := u.peers[to]
	if !ok {
		u.mu.Unlock()
		return nil, fmt.Errorf("%w: %d", ErrNoPeer, to)
	}
	conn, ok := u.conns[from]
	if !ok {
		conn = u.anyone
	}
	u.sent++
	u.mu.Unlock()

	pkt := make([]byte, udpEnvSize+len(wire))
	pkt[0] = udpMagic
	pkt[1] = udpEnvVersion
	binary.BigEndian.PutUint32(pkt[2:], uint32(int32(from)))
	binary.BigEndian.PutUint32(pkt[6:], uint32(int32(to)))
	binary.BigEndian.PutUint64(pkt[10:], uint64(arriveUS))
	copy(pkt[udpEnvSize:], wire)
	if _, err := conn.WriteToUDP(pkt, dst); err != nil {
		return nil, err
	}
	return nil, nil
}

// Poll implements Transport: drain whatever has arrived, without blocking.
func (u *UDP) Poll() []Delivery {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.drainLocked()
}

func (u *UDP) drainLocked() []Delivery {
	if len(u.queue) == 0 {
		return nil
	}
	out := u.queue
	u.queue = nil
	return out
}

// Wait blocks until a delivery arrives, the timeout elapses, or the
// transport closes, then drains the queue (nil on timeout/close).
func (u *UDP) Wait(d time.Duration) []Delivery {
	deadline := time.Now().Add(d)
	u.mu.Lock()
	defer u.mu.Unlock()
	for len(u.queue) == 0 && !u.closed {
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil
		}
		// Condition variables have no deadline; a one-shot timer
		// broadcast bounds the wait.
		t := time.AfterFunc(remain, func() {
			u.mu.Lock()
			u.cond.Broadcast()
			u.mu.Unlock()
		})
		u.cond.Wait()
		t.Stop()
	}
	return u.drainLocked()
}

// Flush implements Transport: give datagrams still crossing the kernel a
// settle period to land, then report what arrived. Empty means quiescent
// (or lost — this is UDP; the caller's retransmission layer owns that).
func (u *UDP) Flush() []Delivery { return u.Wait(u.settle) }

// Close implements Transport: close every socket and stop the receive
// loops. Safe to call more than once.
func (u *UDP) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	conns := make([]*net.UDPConn, 0, len(u.conns))
	for _, c := range u.conns {
		conns = append(conns, c)
	}
	u.cond.Broadcast()
	u.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	u.wg.Wait()
	return nil
}

var _ Transport = (*UDP)(nil)
var _ Waiter = (*UDP)(nil)
