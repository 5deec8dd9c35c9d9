package svc

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/cell"
	"repro/internal/proto"
	"repro/internal/topology"
)

// Session is a tenant session's client protocol as a pure machine. It
// reads no clock, spawns no goroutine and takes no lock: its driver hands
// it the time with every event and carries out the Step the event returns.
// Client drives it over a socket on the wall clock; the service chaos
// harness drives the same machine on a virtual clock.
//
// It runs one call at a time: Call starts one, Reply feeds it every frame
// that arrives, Expire tells it the step's deadline passed. Each request
// carries a fresh nonce and a retransmission resends the same one, so the
// server's idempotency cache makes a retry safe even when only the reply
// was lost. Retransmissions back off exponentially with full jitter
// (backoff), so clients orphaned by one crash return decorrelated, not as
// a herd; an overload refusal is honored the same way, by resending the
// same nonce after a backoff.
//
// The session outlives the server. It keeps a ledger of its circuits, and
// a call refused RefuseStaleSession (the server restarted, or the lease
// expired) re-attaches on its own: hello, then every ledger circuit
// reopened in ascending order of the VCI the application holds, then the
// interrupted operation retried. An alias table maps each VCI the
// application holds to the one the current incarnation knows. A call that
// meets more than maxReattach stale refusals fails with ErrReattach.
type Session struct {
	cfg ClientConfig // its session fields, defaulted
	rng *rand.Rand

	nonce  uint64
	incarn int32 // the server incarnation, learned from replies and stamped into requests
	// ledger records the open that made each circuit, keyed by the VCI the
	// application holds; alias maps that VCI to the one the current
	// incarnation knows (identical until a re-attach reopens the circuit).
	ledger map[cell.VCI]Op
	alias  map[cell.VCI]cell.VCI
	stats  ClientStats

	// The call in flight.
	busy     bool
	op       Op
	trace    uint64     // the driver's trace id; 0 leaves frames unstamped
	sent     uint64     // frames stamped so far: each gets its own span
	phase    int        // doOp, doHello or doReopen
	plan     []cell.VCI // circuits the re-attach round has still to reopen
	rounds   int        // re-attach rounds the call has started
	reStart  time.Time  // when the current round started
	reopened int64      // the round's reopens granted
	failed   int64      // and refused
	attempt  int        // transmissions of the current request so far, less one
	deadline time.Time
	req      proto.Message
	link     [1]proto.LinkRec
	wire     []byte // req encoded; reused by untraced retransmissions
	rep      proto.Message
}

// maxReattach bounds the re-attach rounds one call may start.
const maxReattach = 3

// What the request in flight is for.
const (
	doOp     = iota // the call's own operation
	doHello         // re-attach: register with the living incarnation
	doReopen        // re-attach: reopen plan[0]
)

// Op is one session operation. Kind is KindHello, KindLease, KindBye,
// KindVCRequest (Src, Dst and Rate: > 0 asks for that many guaranteed
// cells/frame, 0 for best-effort) or KindVCClose (VC, the VCI the
// application holds).
type Op struct {
	Kind     proto.Kind
	Src, Dst topology.NodeID
	Rate     int
	VC       cell.VCI
}

// Step is what one event asks of the session's driver.
type Step struct {
	// Send is a frame to transmit now (nil: none). Span is the span id it
	// carries and Attempt the current request's transmission number (0 is
	// the first).
	Send    []byte
	Span    uint64
	Attempt int
	// Answer is the reply the event matched to the request in flight, valid
	// until the session's next event (nil: none).
	Answer *proto.Message
	// Deadline is when to call Expire unless a reply moves the call first.
	Deadline time.Time
	// Done reports that the call finished. Err is nil on success, with
	// Answer the operation's reply, and a *Refused when the server said no.
	Done bool
	Err  error
}

// Answer is what a server's answer tells the application: a hello's host
// roster, the circuit an accepted vc-reply names, the code of a refused
// one. Decode is the one reader of where the wire carries them: the
// roster in Links[].A, the VCI and the code in Depth.
type Answer struct {
	Hosts   []topology.NodeID // a hello's roster
	VC      cell.VCI          // an accepted vc-reply's circuit (0: none; circuits number from 1)
	Refusal int32             // a refused vc-reply's code (0: not refused)
}

// Decode reads a Step's Answer; nil decodes to the zero Answer.
func Decode(m *proto.Message) Answer {
	var a Answer
	switch {
	case m == nil:
	case m.Kind == proto.KindHello:
		a.Hosts = make([]topology.NodeID, len(m.Links))
		for i, l := range m.Links {
			a.Hosts[i] = topology.NodeID(l.A)
		}
	case m.Kind == proto.KindVCReply && m.Accept:
		a.VC = cell.VCI(m.Depth)
	case m.Kind == proto.KindVCReply:
		a.Refusal = m.Depth
	}
	return a
}

// NewSession builds the machine from cfg's session fields (Tenant,
// Timeout, Retries, RetryCap, NoJitter, defaulted as NewClient defaults
// them). rng draws the backoff jitter.
func NewSession(cfg ClientConfig, rng *rand.Rand) *Session {
	return &Session{cfg: cfg.withDefaults(), rng: rng,
		ledger: make(map[cell.VCI]Op), alias: make(map[cell.VCI]cell.VCI)}
}

// Stats returns the session's resilience accounting.
func (s *Session) Stats() ClientStats { return s.stats }

// Incarnation returns the server incarnation the session last saw.
func (s *Session) Incarnation() int32 { return s.incarn }

// Circuits returns the VCIs the application holds, ascending.
func (s *Session) Circuits() []cell.VCI {
	vcs := make([]cell.VCI, 0, len(s.ledger))
	for vc := range s.ledger {
		vcs = append(vcs, vc)
	}
	slices.Sort(vcs)
	return vcs
}

// Call starts op, abandoning any call still in flight (its late replies
// then count as orphans). A nonzero trace is stamped on every frame the
// call sends, each transmission with a span id of its own.
func (s *Session) Call(now time.Time, op Op, trace uint64) Step {
	s.busy, s.op, s.trace, s.sent = true, op, trace, 0
	s.phase, s.rounds = doOp, 0
	return s.request(now, Step{})
}

// Expire tells the session the step's deadline passed: the request in
// flight goes out again under its nonce, or, once every attempt is spent,
// the call fails with ErrRPCTimeout.
func (s *Session) Expire(now time.Time) Step {
	if !s.busy || now.Before(s.deadline) {
		return s.waiting(Step{})
	}
	if s.attempt++; s.attempt >= s.cfg.Retries {
		return s.finish(Step{}, fmt.Errorf("%w (nonce %d)", ErrRPCTimeout, s.nonce))
	}
	return s.transmit(now, Step{})
}

// Reply feeds the session one arriving frame. A frame that fails to decode
// or answers nothing in flight counts as an orphan; another tenant's
// sharing the endpoint is ignored.
func (s *Session) Reply(now time.Time, wire []byte) Step {
	m, links, err := proto.DecodeHeader(wire)
	if err == nil && m.Epoch != s.cfg.Tenant {
		return s.waiting(Step{})
	}
	if err != nil || !s.busy || m.Initiator != s.nonce {
		// Corrupt or misrouted traffic, or (usually) the original answer
		// arriving after its retransmission was already served.
		s.stats.OrphanReplies++
		return s.waiting(Step{})
	}
	s.rep = m
	if n := links.Len(); n > 0 {
		s.rep.Links = make([]proto.LinkRec, n)
		for i := range s.rep.Links {
			s.rep.Links[i] = links.At(i)
		}
	}
	if m.From != 0 {
		s.incarn = m.From // a stale refusal, too, names the living incarnation
	}
	st := Step{Answer: &s.rep}
	refused := !m.Accept && m.Kind == proto.KindVCReply
	switch {
	case refused && m.Depth == RefuseOverloaded && s.attempt+1 < s.cfg.Retries:
		// The server shed us: a pacing signal, not an answer. Resend the
		// same nonce after a backoff.
		s.deadline = now.Add(s.backoff(s.attempt + 1))
		return s.waiting(st)
	case refused && m.Depth == RefuseStaleSession && !(s.phase == doOp && s.op.Kind == proto.KindBye):
		if s.rounds == maxReattach {
			return s.finish(st, ErrReattach)
		}
		s.rounds++
		s.phase, s.reStart, s.reopened, s.failed = doHello, now, 0, 0
		s.plan = s.Circuits()
	case s.phase == doHello:
		s.phase = doReopen
	case s.phase == doReopen:
		user := s.plan[0]
		s.plan = s.plan[1:]
		if m.Accept {
			s.alias[user] = cell.VCI(m.Depth)
			s.reopened++
		} else {
			// The new world refused it (capacity changed, quotas tightened):
			// the circuit is gone, as after any close.
			delete(s.ledger, user)
			delete(s.alias, user)
			s.failed++
		}
	default:
		return s.answered(st, refused)
	}
	if s.phase == doReopen && len(s.plan) == 0 {
		s.stats.Reattaches++
		s.stats.ReattachVCs += s.reopened
		s.stats.ReattachFailedVCs += s.failed
		s.stats.LastReattachAt, s.stats.LastReattachDur = now, now.Sub(s.reStart)
		s.phase = doOp
	}
	return s.request(now, st)
}

// answered finishes the call on its operation's own reply.
func (s *Session) answered(st Step, refused bool) Step {
	m := st.Answer
	var err error
	if refused {
		err = &Refused{Code: m.Depth}
	}
	switch s.op.Kind {
	case proto.KindVCRequest:
		if m.Accept {
			vc := cell.VCI(m.Depth)
			s.ledger[vc], s.alias[vc] = s.op, vc
		}
	case proto.KindVCClose:
		delete(s.ledger, s.op.VC)
		delete(s.alias, s.op.VC)
	case proto.KindBye:
		clear(s.ledger)
		clear(s.alias)
		if m.Depth == RefuseStaleSession {
			// Either way the session is gone: re-attaching just to say
			// goodbye would resurrect it.
			err = nil
		}
	}
	return s.finish(st, err)
}

// Traffic encodes a fire-and-forget frame queueing cells on the circuit
// the application holds as vc.
func (s *Session) Traffic(now time.Time, vc cell.VCI, cells int) ([]byte, error) {
	return proto.Marshal(&proto.Message{
		Kind: proto.KindTraffic, Epoch: s.cfg.Tenant,
		From: int32(s.serverVCI(vc)), Depth: int32(cells), VTimeUS: now.UnixMicro(),
	})
}

// serverVCI translates an application-held VCI through the alias table.
func (s *Session) serverVCI(vc cell.VCI) cell.VCI {
	if cur, ok := s.alias[vc]; ok {
		return cur
	}
	return vc
}

// request starts the phase's next request under a fresh nonce, stamped
// with the incarnation the session now believes in.
func (s *Session) request(now time.Time, st Step) Step {
	s.nonce++
	s.attempt, s.wire = 0, nil
	s.req = proto.Message{Epoch: s.cfg.Tenant, Initiator: s.nonce, From: s.incarn}
	switch {
	case s.phase == doHello:
		s.req.Kind = proto.KindHello
	case s.phase == doReopen:
		s.open(s.ledger[s.plan[0]])
	case s.op.Kind == proto.KindVCRequest:
		s.open(s.op)
	case s.op.Kind == proto.KindVCClose:
		s.req.Kind, s.req.Depth = proto.KindVCClose, int32(s.serverVCI(s.op.VC))
	default:
		s.req.Kind = s.op.Kind
	}
	return s.transmit(now, st)
}

func (s *Session) open(o Op) {
	s.req.Kind, s.req.Depth = proto.KindVCRequest, int32(o.Rate)
	s.link[0] = proto.LinkRec{A: int32(o.Src), B: int32(o.Dst)}
	s.req.Links = s.link[:]
}

// transmit sends the request in flight and arms its reply deadline. An
// untraced request is encoded once and resent byte for byte; a traced one
// is restamped per transmission with its own span and send time.
func (s *Session) transmit(now time.Time, st Step) Step {
	if s.attempt > 0 {
		s.stats.Retransmits++
	}
	if s.wire == nil || s.trace != 0 {
		if s.trace != 0 {
			s.sent++
			s.req.TraceID, s.req.Span = s.trace, mix64(s.sent*0x9E3779B97F4A7C15+s.trace)
		}
		s.req.VTimeUS = now.UnixMicro()
		wire, err := proto.Marshal(&s.req)
		if err != nil {
			return s.finish(st, err)
		}
		s.wire = wire
	}
	st.Send, st.Span = s.wire, s.req.Span
	s.deadline = now.Add(s.backoff(s.attempt))
	return s.waiting(st)
}

// backoff returns how long attempt waits for its reply before the next
// transmission: Timeout for attempt 0 (and always under NoJitter),
// otherwise a full-jitter draw from [Timeout/2, min(RetryCap, Timeout·2^i)].
func (s *Session) backoff(attempt int) time.Duration {
	c := &s.cfg
	if attempt <= 0 || c.NoJitter {
		return c.Timeout
	}
	hi := c.RetryCap
	if attempt < 30 {
		if shifted := c.Timeout << uint(attempt); shifted < hi {
			hi = shifted
		}
	}
	lo := c.Timeout / 2
	if hi <= lo {
		return hi
	}
	return lo + time.Duration(s.rng.Int63n(int64(hi-lo)+1))
}

func (s *Session) waiting(st Step) Step {
	if s.busy {
		st.Attempt, st.Deadline = s.attempt, s.deadline
	}
	return st
}

func (s *Session) finish(st Step, err error) Step {
	s.busy = false
	st.Done, st.Err = true, err
	return st
}
