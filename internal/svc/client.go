package svc

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cell"
	"repro/internal/ctrlnet"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/topology"
)

// Client is one tenant's session handle: the Session machine driven over a
// transport on the wall clock. Calls are serialized, one operation at a
// time, and the calling goroutine itself blocks in the transport's Wait
// until the next reply or the machine's next deadline, so a client owns no
// goroutine and no timer. The machine decides everything said on the wire
// (nonces, retransmission and backoff, re-attach, the ledger); the client
// adds the socket, the clock, spans and obs.
type Client struct {
	tr     ctrlnet.Transport
	waiter ctrlnet.Waiter
	self   topology.NodeID // this endpoint's transport id
	server topology.NodeID
	tenant uint64
	closed atomic.Bool

	// mu serializes calls. It guards the machine and seen, the machine's
	// counters as last published to obs.
	mu   sync.Mutex
	s    *Session
	seen ClientStats

	obsOrphans    *obs.Counter
	obsRetrans    *obs.Counter
	obsReattach   *obs.Counter
	obsReattFail  *obs.Counter
	obsReattLatUS *obs.Histogram

	// Tracing: sp == nil is tracing fully off (a call then takes no tracing
	// branch beyond one pointer test and allocates nothing extra, pinned by
	// TestClientTracingDisabledAddsNoAllocs). ring is kept for DumpRecorder.
	sp       *spanner
	ring     *obs.Ring
	obsOpLat map[proto.Kind]*obs.Histogram
	tc       traceCtx // the current operation's trace, reset per call under mu
}

// traceCtx is one logical operation's trace: a trace id shared by every
// attempt, backoff, and re-attach the operation spawns, and a root span
// the children parent under. nil means the operation is untraced.
type traceCtx struct {
	trace    uint64
	root     uint64
	op       proto.Kind
	start    time.Time
	attempts int   // transmissions
	waitUS   int64 // when the current wait began
	attempt  int   // the transmission number the current wait follows
}

// ClientStats is the client's resilience accounting.
type ClientStats struct {
	// Retransmits counts request frames re-sent after a timeout or an
	// overload refusal.
	Retransmits int64
	// Reattaches counts completed re-attach rounds (hello + ledger
	// re-open after a stale-session refusal).
	Reattaches int64
	// ReattachVCs / ReattachFailedVCs count ledger circuits re-opened /
	// refused during re-attach (refused ones are dropped from the ledger).
	ReattachVCs       int64
	ReattachFailedVCs int64
	// OrphanReplies counts frames that answered nothing in flight:
	// undecodable ones and late duplicates. A client counts them when a
	// call next reads them.
	OrphanReplies int64
	// LastReattachAt / LastReattachDur describe the most recent re-attach.
	LastReattachAt  time.Time
	LastReattachDur time.Duration
}

// ClientConfig configures a tenant session.
type ClientConfig struct {
	// Transport must implement ctrlnet.Waiter: a call blocks in its Wait.
	// The client does not own its lifecycle (Close leaves it open), so
	// endpoints can be pooled across sequential sessions.
	Transport ctrlnet.Transport
	// Self is this endpoint's id in the transport address space; Server
	// is the service's id. Tenant is the tenant identity sent as Epoch.
	Self, Server topology.NodeID
	Tenant       uint64
	// Timeout is attempt 0's reply deadline (default 250ms); Retries is
	// total attempts before an RPC fails (default 4).
	Timeout time.Duration
	Retries int
	// RetryCap bounds the exponential backoff between attempts
	// (default 2s).
	RetryCap time.Duration
	// NoJitter replaces backoff+jitter with fixed Timeout pacing — the
	// thundering-herd control arm for experiments, not for production.
	NoJitter bool
	// Seed seeds the jitter RNG for reproducible runs (0: time-seeded).
	Seed int64
	// Obs, if set, receives the client instruments (svc_client_*,
	// svc_reattach_*, and — when tracing is on — svc_op_latency_us with
	// trace-id exemplars).
	Obs *obs.Registry
	// Spans, if set, receives the client's service spans (svc-op,
	// svc-send, svc-recv, svc-backoff, svc-reattach) as JSONL — one
	// stream per process, merged offline against the server's by
	// cmd/an2trace -merge.
	Spans *obs.SpanWriter
	// Ring, if set, is the client-side flight recorder: recent spans kept
	// in memory even without Spans, dumped via DumpRecorder.
	Ring *obs.Ring
	// SpanSeed decorrelates span ids across processes (0: wall-derived).
	SpanSeed uint64
}

func (cfg ClientConfig) withDefaults() ClientConfig {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 250 * time.Millisecond
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 4
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = 2 * time.Second
	}
	if cfg.RetryCap < cfg.Timeout {
		cfg.RetryCap = cfg.Timeout
	}
	return cfg
}

// RPC errors.
var (
	ErrRPCTimeout = errors.New("svc: rpc timed out after all retries")
	ErrClientDone = errors.New("svc: client closed")
	// ErrReattach reports that re-attach itself kept hitting stale
	// refusals — the server is restarting faster than we can register.
	ErrReattach = errors.New("svc: re-attach did not converge")
)

// Refused reports an admission refusal: the request was answered, and
// the answer was no.
type Refused struct {
	Code int32
}

func (r *Refused) Error() string { return "svc: refused: " + RefusalString(r.Code) }

// NewClient starts a tenant session.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Transport == nil {
		return nil, errors.New("svc: nil transport")
	}
	w, ok := cfg.Transport.(ctrlnet.Waiter)
	if !ok {
		return nil, ErrNoWaiter
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	reg := cfg.Obs
	c := &Client{
		tr:            cfg.Transport,
		waiter:        w,
		self:          cfg.Self,
		server:        cfg.Server,
		tenant:        cfg.Tenant,
		s:             NewSession(cfg, rand.New(&lazySource{seed: seed})),
		obsOrphans:    reg.Counter("svc_client_orphan_replies"),
		obsRetrans:    reg.Counter("svc_client_retransmits_total"),
		obsReattach:   reg.Counter("svc_reattach_total"),
		obsReattFail:  reg.Counter("svc_reattach_failed_vcs_total"),
		obsReattLatUS: reg.Histogram("svc_reattach_latency_us"),
		sp:            newSpanner(cfg.Spans, cfg.Ring, cfg.SpanSeed),
		ring:          cfg.Ring,
	}
	if c.sp != nil {
		c.obsOpLat = map[proto.Kind]*obs.Histogram{
			proto.KindHello:     reg.Histogram("svc_op_latency_us", "op", "hello"),
			proto.KindVCRequest: reg.Histogram("svc_op_latency_us", "op", "open"),
			proto.KindVCClose:   reg.Histogram("svc_op_latency_us", "op", "close"),
			proto.KindLease:     reg.Histogram("svc_op_latency_us", "op", "lease"),
			proto.KindBye:       reg.Histogram("svc_op_latency_us", "op", "bye"),
		}
	}
	return c, nil
}

// lazySource is a client's backoff-jitter source, seeded on its first
// draw: seeding a math/rand source costs tens of microseconds, and a
// session that is never refused or timed out never draws. It draws what
// rand.NewSource(seed) would.
type lazySource struct {
	seed int64
	src  rand.Source
}

func (l *lazySource) Int63() int64 {
	if l.src == nil {
		l.src = rand.NewSource(l.seed)
	}
	return l.src.Int63()
}

func (l *lazySource) Seed(seed int64) { l.seed, l.src = seed, nil }

// Close ends the session handle: later calls fail with ErrClientDone, and
// a call in flight fails so at its next wake-up. It does not close the
// underlying transport.
func (c *Client) Close() { c.closed.Store(true) }

// Stats returns a snapshot of the client's resilience accounting.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Stats()
}

// Incarnation returns the server incarnation this session last saw.
func (c *Client) Incarnation() int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Incarnation()
}

// call runs one operation to completion: the machine decides, and the
// client sends what it asks, waits in the transport until the next reply
// or the step's deadline, and hands the machine what happened.
func (c *Client) call(op Op) (proto.Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return proto.Message{}, ErrClientDone
	}
	now := time.Now()
	tc := c.startOp(op.Kind, now)
	defer c.endOp(tc)
	st := c.note(tc, now, c.s.Call(now, op, tc.id()))
	var batch []ctrlnet.Delivery
	for {
		if st.Send != nil {
			if _, err := c.tr.Send(c.self, c.server, st.Send, 0); err != nil {
				return proto.Message{}, err
			}
			st.Send = nil
		}
		if st.Done {
			// Whatever else the batch carried answers nothing now.
			for _, d := range batch {
				c.s.Reply(now, d.Wire)
			}
			var rep proto.Message
			if st.Answer != nil {
				rep = *st.Answer
			}
			return rep, st.Err
		}
		if len(batch) > 0 {
			st = c.note(tc, now, c.s.Reply(now, batch[0].Wire))
			batch = batch[1:]
			continue
		}
		if now = time.Now(); !now.Before(st.Deadline) {
			c.noteBackoff(tc, now)
			st = c.note(tc, now, c.s.Expire(now))
			continue
		}
		batch = c.waiter.Wait(st.Deadline.Sub(now))
		now = time.Now()
		if c.closed.Load() {
			return proto.Message{}, ErrClientDone
		}
		if len(batch) == 0 && now.Before(st.Deadline) {
			// Wait returns early with nothing only once the transport closed.
			return proto.Message{}, ctrlnet.ErrClosed
		}
	}
}

// startOp opens one logical operation's trace (nil when tracing is off):
// a fresh trace id, a root span, and the call's wall-clock start. The
// trace lives in the client, which runs one call at a time.
func (c *Client) startOp(op proto.Kind, now time.Time) *traceCtx {
	if c.sp == nil {
		return nil
	}
	c.tc = traceCtx{trace: c.sp.next(), root: c.sp.next(), op: op, start: now}
	return &c.tc
}

// id is the trace id to stamp on the operation's frames (0: untraced).
func (tc *traceCtx) id() uint64 {
	if tc == nil {
		return 0
	}
	return tc.trace
}

// endOp publishes what the operation left in the machine's counters and
// closes its trace: the root svc-op span (Dur = the latency the
// application saw, Seq = transmissions it took) and the per-op latency
// histogram observation carrying the trace id as exemplar.
func (c *Client) endOp(tc *traceCtx) {
	c.publish(tc)
	if tc == nil {
		return
	}
	durUS := time.Since(tc.start).Microseconds()
	c.sp.emit(&obs.Event{Kind: obs.KindSvcOp, WallUS: tc.start.UnixMicro(), Dur: durUS,
		Trace: tc.trace, Span: tc.root, Epoch: c.tenant, Seq: uint64(tc.attempts)})
	c.obsOpLat[tc.op].ObserveEx(0, durUS, tc.trace)
}

// note records one machine step: in a traced operation, a recv span for
// the reply it matched (Span echoes the attempt the server answered, Node
// its incarnation, Seq the refusal code, 0 for accepted) and a send span
// for the frame it sends; and, always, the counters it moved.
func (c *Client) note(tc *traceCtx, now time.Time, st Step) Step {
	if tc != nil {
		us := now.UnixMicro()
		if a := st.Answer; a != nil {
			var code uint64
			if !a.Accept && a.Kind == proto.KindVCReply {
				code = uint64(a.Depth)
			}
			c.sp.emit(&obs.Event{Kind: obs.KindSvcRecv, WallUS: us,
				Trace: tc.trace, Span: a.Span, Parent: tc.root,
				Node: a.From, Epoch: c.tenant, Seq: code})
		}
		if st.Send != nil {
			tc.attempts++
			c.sp.emit(&obs.Event{Kind: obs.KindSvcSend, WallUS: us,
				Trace: tc.trace, Span: st.Span, Parent: tc.root,
				Epoch: c.tenant, Seq: uint64(st.Attempt)})
		}
		tc.waitUS, tc.attempt = us, st.Attempt
	}
	c.publish(tc)
	return st
}

// noteBackoff records one wait that ended without a reply — the reply
// deadline that doubles as the backoff interval, or an overload-refusal
// wait.
func (c *Client) noteBackoff(tc *traceCtx, now time.Time) {
	if tc == nil {
		return
	}
	c.sp.emit(&obs.Event{Kind: obs.KindSvcBackoff, WallUS: tc.waitUS, Dur: now.UnixMicro() - tc.waitUS,
		Trace: tc.trace, Span: c.sp.next(), Parent: tc.root,
		Epoch: c.tenant, Seq: uint64(tc.attempt)})
}

// publish moves the obs instruments by what the machine's counters moved
// since the last publication. A step completes at most one re-attach
// round, which gets its latency observation and, traced, its span.
func (c *Client) publish(tc *traceCtx) {
	now, was := c.s.Stats(), c.seen
	c.seen = now
	c.obsOrphans.Add(0, now.OrphanReplies-was.OrphanReplies)
	c.obsRetrans.Add(0, now.Retransmits-was.Retransmits)
	c.obsReattFail.Add(0, now.ReattachFailedVCs-was.ReattachFailedVCs)
	if now.Reattaches == was.Reattaches {
		return
	}
	c.obsReattach.Add(0, now.Reattaches-was.Reattaches)
	c.obsReattLatUS.ObserveEx(0, now.LastReattachDur.Microseconds(), tc.id())
	if tc != nil {
		c.sp.emit(&obs.Event{Kind: obs.KindSvcReattach,
			WallUS: now.LastReattachAt.Add(-now.LastReattachDur).UnixMicro(),
			Dur:    now.LastReattachDur.Microseconds(), Trace: tc.trace, Span: c.sp.next(),
			Parent: tc.root, Epoch: c.tenant, Seq: uint64(now.ReattachVCs - was.ReattachVCs)})
	}
}

// Hello announces the session and returns the host roster.
func (c *Client) Hello() ([]topology.NodeID, error) {
	rep, err := c.call(Op{Kind: proto.KindHello})
	if err != nil {
		return nil, err
	}
	hosts := make([]topology.NodeID, 0, len(rep.Links))
	for _, l := range rep.Links {
		hosts = append(hosts, topology.NodeID(l.A))
	}
	return hosts, nil
}

// Open requests a circuit: rate > 0 asks for that many guaranteed
// cells/frame, rate == 0 asks for best-effort. A *Refused error means the
// server answered no (quota, capacity, bad request); other errors mean
// the request itself failed. The returned VCI stays valid across server
// restarts: re-attach re-opens the circuit and aliases this VCI to the
// new one.
func (c *Client) Open(src, dst topology.NodeID, rate int) (cell.VCI, error) {
	rep, err := c.call(Op{Kind: proto.KindVCRequest, Src: src, Dst: dst, Rate: rate})
	if err != nil {
		return 0, err
	}
	return cell.VCI(rep.Depth), nil
}

// CloseVC tears down one of this tenant's circuits.
func (c *Client) CloseVC(vc cell.VCI) error {
	_, err := c.call(Op{Kind: proto.KindVCClose, VC: vc})
	return err
}

// Traffic queues cells on a circuit, fire-and-forget.
func (c *Client) Traffic(vc cell.VCI, cells int) error {
	c.mu.Lock()
	wire, err := c.s.Traffic(time.Now(), vc, cells)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	_, err = c.tr.Send(c.self, c.server, wire, 0)
	return err
}

// Bye ends the session; the server closes every circuit the tenant holds.
// A stale-session refusal counts as success: either way, the session is
// gone.
func (c *Client) Bye() error {
	_, err := c.call(Op{Kind: proto.KindBye})
	return err
}
