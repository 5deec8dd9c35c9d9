// Package svcsys composes the VC service once, as a deterministic system
// on one virtual clock: a LAN, the server over it (alive or killed), the
// tenant sessions, and the datagrams in flight, threaded through one
// seeded fault engine. It is host actions plus a network, with time in the
// model: nothing here reads the wall clock, sleeps or spawns.
//
// One Tick is one virtual millisecond:
//  1. datagrams due at the server are served (to a dead server, they vanish);
//  2. datagrams due at tenants go to their sessions in (time, send order);
//  3. tenants in node order take the caller's host actions (Call, Traffic)
//     and Expire if the session's deadline has passed;
//  4. the LAN advances StepSlots slots, and a living server sweeps.
//
// A frame a session asks for is sent at once, so a request sent in step 3
// is served in step 1 of the next tick and answered in its step 2.
package svcsys

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/ctrlnet"
	"repro/internal/svc"
	"repro/internal/topology"
)

// StepSlots is how many data-plane slots the LAN advances per tick.
const StepSlots = 16

const (
	serverNode = topology.NodeID(0)
	tenantBase = topology.NodeID(100) // tenant i is node tenantBase+i
)

// System is the composed service. It is not safe for concurrent use.
type System struct {
	lan   *core.LAN
	cfg   svc.Config // the last incarnation's configuration
	srv   *svc.Server
	alive bool
	net   *ctrlnet.Net

	sessions []*svc.Session // nil once the host has left
	stepped  []svc.Step     // the acting tenant's steps from Call and Expire

	nowMS              int64
	toServer, toTenant []ctrlnet.Delivery
}

// New composes a system around a server built from server over
// server.LAN, its datagrams threaded through a fault engine built from
// faults. The system supplies the server's Transport, Node and Now. The
// clock starts at 0 ms.
func New(server svc.Config, faults ctrlnet.Config) (*System, error) {
	net, err := ctrlnet.New(faults)
	if err != nil {
		return nil, err
	}
	s := &System{lan: server.LAN, cfg: server, net: net, alive: true}
	s.cfg.Transport, s.cfg.Node, s.cfg.Now = serverPort{s}, serverNode, s.Now
	if s.srv, err = svc.NewServer(s.cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Join adds a tenant host running sess; tenants are numbered from 0.
func (s *System) Join(sess *svc.Session) { s.sessions = append(s.sessions, sess) }

// Leave takes tenant i's host away for good: it acts no more, and frames
// to it vanish.
func (s *System) Leave(i int) { s.sessions[i] = nil }

// NowMS is the virtual clock in milliseconds.
func (s *System) NowMS() int64 { return s.nowMS }

// Now is the virtual clock, the one the server and every session read.
func (s *System) Now() time.Time { return time.UnixMilli(s.nowMS) }

// Server returns the living incarnation, or the last one killed.
func (s *System) Server() *svc.Server { return s.srv }

// Alive reports whether a server incarnation is running.
func (s *System) Alive() bool { return s.alive }

// Kill stops the server process: datagrams to it vanish until Restart.
func (s *System) Kill() { s.alive = false }

// Restart boots the next incarnation over the same LAN (it adopts what
// the dead one left open as orphans), its incarnation number and span seed
// each one past the last.
func (s *System) Restart() error {
	s.cfg.Incarnation = s.srv.Incarnation() + 1
	s.cfg.SpanSeed++
	srv, err := svc.NewServer(s.cfg)
	if err == nil {
		s.srv, s.alive = srv, true
	}
	return err
}

// Call, a host action for tenant i, starts op on its session and sends
// the first frame. Tick hands the call's step to the driver once act
// returns, so even a call that finishes at once is booked.
func (s *System) Call(i int, op svc.Op, trace uint64) {
	s.stepped = append(s.stepped, s.send(i, s.sessions[i].Call(s.Now(), op, trace)))
}

// Traffic, a host action, sends a fire-and-forget frame queueing cells on
// the circuit tenant i holds as vc.
func (s *System) Traffic(i int, vc cell.VCI, cells int) error {
	wire, err := s.sessions[i].Traffic(s.Now(), vc, cells)
	s.send(i, svc.Step{Send: wire}) // nil on error: nothing sent
	return err
}

// Tick runs one virtual millisecond. step receives every step a delivery,
// a call or an expiry produced; false ends the tick there, the clock
// unmoved, and Tick reports false. act runs a present tenant's host
// actions.
func (s *System) Tick(step func(i int, st svc.Step) bool, act func(i int)) bool {
	for _, d := range s.due(&s.toServer) {
		if s.alive {
			s.srv.ServeOne(d)
		}
	}
	for _, d := range s.due(&s.toTenant) {
		// The server answers only tenants; a frame to a host that left vanishes.
		if i := int(d.To - tenantBase); s.sessions[i] != nil && !step(i, s.send(i, s.sessions[i].Reply(s.Now(), d.Wire))) {
			return false
		}
	}
	for i := range s.sessions {
		if s.sessions[i] != nil {
			act(i)
		}
		// An idle session, or one whose deadline is ahead, ignores Expire.
		if sess := s.sessions[i]; sess != nil {
			if st := sess.Expire(s.Now()); st.Send != nil || st.Done {
				s.stepped = append(s.stepped, s.send(i, st))
			}
		}
		for _, st := range s.stepped {
			if !step(i, st) {
				return false
			}
		}
		s.stepped = s.stepped[:0]
	}
	s.lan.Run(StepSlots)
	if s.alive {
		s.srv.Sweep()
	}
	s.nowMS++
	return true
}

// Settle ends a run at ms: what is in flight is lost, the clock jumps to
// ms, and a living server sweeps before the LAN advances one tick.
func (s *System) Settle(ms int64) {
	s.net.Flush()
	s.toServer, s.toTenant = nil, nil
	s.nowMS = ms
	if s.alive {
		s.srv.Sweep()
		s.lan.Run(StepSlots)
	}
}

func (s *System) send(i int, st svc.Step) svc.Step {
	if st.Send != nil {
		s.transmit(tenantBase+topology.NodeID(i), serverNode, st.Send)
	}
	return st
}

// transmit threads one frame through the fault engine.
func (s *System) transmit(from, to topology.NodeID, wire []byte) {
	q := &s.toTenant
	if to == serverNode {
		q = &s.toServer
	}
	*q = append(*q, s.net.Transmit(from, to, wire, s.nowMS*1000)...)
}

// due removes the datagrams due by now from *q, in (time, send order).
// The queue is kept in send order among equal arrival times, so a stable
// sort by arrival time puts the due ones first.
func (s *System) due(q *[]ctrlnet.Delivery) (due []ctrlnet.Delivery) {
	slices.SortStableFunc(*q, func(a, b ctrlnet.Delivery) int { return cmp.Compare(a.AtUS, b.AtUS) })
	n := 0
	for n < len(*q) && (*q)[n].AtUS <= s.nowMS*1000 {
		n++
	}
	due, *q = (*q)[:n:n], (*q)[n:]
	return due
}

// serverPort is the server's Transport into the system's network.
type serverPort struct{ s *System }

func (p serverPort) Send(from, to topology.NodeID, wire []byte, _ int64) ([]ctrlnet.Delivery, error) {
	p.s.transmit(from, to, wire)
	return nil, nil
}
func (serverPort) Poll() []ctrlnet.Delivery  { return nil }
func (serverPort) Flush() []ctrlnet.Delivery { return nil }
func (serverPort) Close() error              { return nil }
