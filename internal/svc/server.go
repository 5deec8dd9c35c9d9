package svc

import (
	"slices"
	"time"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/topology"
)

const (
	// nonceCacheSize bounds the per-tenant idempotency window. A client
	// retries a nonce only until its RPC deadline, so the window needs to
	// cover in-flight requests, not history.
	nonceCacheSize = 128
	// shedWatermark is the request backlog — frames still queued behind
	// this one in the same receive batch — past which vc-requests are
	// refused with RefuseOverloaded instead of served.
	shedWatermark = 1024
	// maxBurst caps the cells one traffic frame may queue.
	maxBurst = 4096
)

// Stats is the server's aggregate accounting: the machine's one set of
// counts, which the shell publishes to obs as deltas.
type Stats struct {
	Requests       int64
	RequestsGtd    int64 // of Requests, those asking for guaranteed cells
	AdmittedBE     int64
	AdmittedGtd    int64
	Refused        int64
	RefusedBy      map[int32]int64
	TrafficCells   int64
	TrafficRefused int64 // cells past maxBurst or a full ingress window
	Replays        int64 // duplicate nonces answered from the cache
	Steps          int64 // data-plane slots advanced while serving

	LeaseRenewals    int64 // explicit lease heartbeats served
	LeaseExpired     int64 // tenants garbage-collected by lease expiry
	LeaseGCVCs       int64 // circuits closed by lease expiry
	OrphansAdopted   int64 // circuits inherited from a prior incarnation
	OrphansReclaimed int64 // inherited circuits closed after the grace
	Shed             int64 // vc-requests refused by overload shedding
}

// machine is the VC service's protocol: one state machine that takes a
// message and returns the reply, like bandwidth central's single admission
// point. It holds only protocol state and reads no clock, sends nothing and
// records nothing: time and the message are arguments and the frame to
// send is the result, the shape of SNIPPETS.md's Host.Next(c, v, v',
// msgOps). Server is its shell.
type machine struct {
	lan            *core.LAN
	incarnation    int32
	maxVCs, maxGtd int
	leaseDur       time.Duration
	leaseMS        int32
	hosts          map[topology.NodeID]bool
	roster         []proto.LinkRec

	tenants map[uint64]*tenant
	// admitCount is per-tenant admissions over the server's whole life —
	// it survives bye and lease GC, because fairness is a property of
	// history, not of whoever happens to be connected right now.
	admitCount map[uint64]int64
	// vcOwner maps every open VC to its owning tenant, so traffic and
	// close are validated in O(1).
	vcOwner map[cell.VCI]uint64
	// orphans are circuits inherited from a previous incarnation: open in
	// the LAN at startup but owned by no live session. Each waits for its
	// reclaim deadline, then is closed.
	orphans  map[cell.VCI]time.Time
	draining bool
	stats    Stats
}

// tenant is one tenant's server-side session state.
type tenant struct {
	id  uint64
	vcs map[cell.VCI]int // VCI -> reserved cells/frame (0 = best-effort)
	gtd int              // total reserved cells/frame

	// leaseExpiry is when this session dies unless renewed.
	leaseExpiry time.Time

	// Idempotency: replies already sent, keyed by nonce, FIFO-bounded.
	replies map[uint64][]byte
	order   []uint64
}

// outcome is what one message made the machine do, for the shell to
// carry out and record.
type outcome struct {
	to       topology.NodeID // where wire goes: the sender
	wire     []byte          // the reply frame; nil sends nothing
	refused  int32           // the refusal this message drew (0: none; a replay is not one)
	replayed bool            // wire is the cached reply to a duplicate nonce
	shed     bool            // the refusal is overload shedding
}

// newMachine builds the protocol over cfg's LAN (defaults applied).
// Circuits already open in the LAN are adopted as orphans, due for reclaim
// at now + OrphanGrace.
func newMachine(cfg Config, now time.Time) machine {
	c := machine{
		lan:         cfg.LAN,
		incarnation: cfg.Incarnation,
		maxVCs:      cfg.MaxVCsPerTenant,
		maxGtd:      cfg.MaxGuaranteedPerTenant,
		leaseDur:    cfg.LeaseDur,
		leaseMS:     max(int32(cfg.LeaseDur/time.Millisecond), 1),
		hosts:       make(map[topology.NodeID]bool),
		tenants:     make(map[uint64]*tenant),
		admitCount:  make(map[uint64]int64),
		vcOwner:     make(map[cell.VCI]uint64),
		orphans:     make(map[cell.VCI]time.Time),
		stats:       Stats{RefusedBy: make(map[int32]int64)},
	}
	for _, h := range cfg.LAN.Topology().Hosts() {
		c.hosts[h] = true
		c.roster = append(c.roster, proto.LinkRec{A: int32(h), B: int32(h)})
	}
	for _, vc := range cfg.LAN.Circuits() {
		c.orphans[vc] = now.Add(cfg.OrphanGrace)
		c.stats.OrphansAdopted++
	}
	return c
}

// handle serves one decoded message from endpoint from at now. backlog is
// how many frames still wait behind it in the same receive batch: the
// shed signal.
func (c *machine) handle(now time.Time, from topology.NodeID, m *proto.Message, backlog int) outcome {
	var out outcome
	switch m.Kind {
	case proto.KindDrain:
		// Sessionless and uncached: an operator tool, not a tenant.
		var state int32
		if c.draining = m.Depth != 0; c.draining {
			state = 1
		}
		out.wire = c.reply(nil, m, &proto.Message{Kind: proto.KindDrain, Accept: true, Depth: state})
	case proto.KindTraffic:
		// Fire-and-forget; ownership is the only authentication, and a
		// live owner's lease is renewed by its own traffic.
		if tn, ok := c.tenants[m.Epoch]; ok {
			tn.leaseExpiry = now.Add(c.leaseDur)
			c.traffic(tn, m)
		}
	case proto.KindHello, proto.KindVCRequest, proto.KindVCClose, proto.KindBye, proto.KindLease:
		out = c.session(now, m, backlog)
	default:
		// Reconfiguration kinds do not belong on the service socket.
	}
	out.to = from
	return out
}

// session serves a kind that speaks for a session. Hello is the only kind
// that creates one; the others must name a live session of this
// incarnation. Any of them renews the lease, and a nonce already answered
// gets its cached reply without re-executing.
func (c *machine) session(now time.Time, m *proto.Message, backlog int) outcome {
	tn, ok := c.tenants[m.Epoch]
	if m.Kind == proto.KindHello {
		if !ok {
			tn = &tenant{id: m.Epoch, vcs: make(map[cell.VCI]int), replies: make(map[uint64][]byte)}
			c.tenants[m.Epoch] = tn
		}
	} else if !ok || m.From != c.incarnation {
		// A session this incarnation never opened (the server restarted,
		// or the lease expired and was collected), or a request stamped
		// with a dead incarnation. The typed refusal tells the client to
		// re-attach rather than guess.
		return c.refuse(nil, m, RefuseStaleSession)
	}
	tn.leaseExpiry = now.Add(c.leaseDur)
	if wire, ok := tn.replies[m.Initiator]; ok {
		c.stats.Replays++
		return outcome{wire: wire, replayed: true}
	}
	switch m.Kind {
	case proto.KindHello:
		// The reply carries the incarnation (From) and the lease grant in
		// ms (Depth) alongside the host roster.
		return outcome{wire: c.reply(tn, m, &proto.Message{
			Kind: proto.KindHello, Accept: true, Depth: c.leaseMS, Links: c.roster})}
	case proto.KindLease:
		c.stats.LeaseRenewals++
		return outcome{wire: c.reply(tn, m, &proto.Message{Kind: proto.KindLease, Accept: true, Depth: c.leaseMS})}
	case proto.KindVCRequest:
		return c.open(tn, m, backlog)
	case proto.KindVCClose:
		return c.close(tn, m)
	default: // proto.KindBye
		// Every circuit closed, the session deleted. A retransmitted bye
		// finds no session and is refused stale, which the client treats
		// as success; the cache went with the session, so none is kept.
		c.closeAll(tn)
		return outcome{wire: c.reply(nil, m, &proto.Message{Kind: proto.KindBye, Accept: true})}
	}
}

// reply finishes one answer: echo req's tenant, nonce, timestamp and trace
// context, stamp the incarnation, and encode. A non-nil cache is the
// tenant whose nonce cache keeps the frame for replays.
func (c *machine) reply(cache *tenant, req, rep *proto.Message) []byte {
	rep.Epoch, rep.Initiator, rep.VTimeUS = req.Epoch, req.Initiator, req.VTimeUS
	rep.From, rep.TraceID, rep.Span = c.incarnation, req.TraceID, req.Span
	wire, err := proto.Marshal(rep)
	if err != nil {
		return nil
	}
	if cache != nil {
		cache.order = append(cache.order, req.Initiator)
		if len(cache.order) > nonceCacheSize {
			delete(cache.replies, cache.order[0])
			cache.order = cache.order[1:]
		}
		cache.replies[req.Initiator] = wire
	}
	return wire
}

// refuse answers req with refusal code. cache is the tenant to cache it
// under, or nil for weather (draining, overloaded, stale session): a retry
// of the same nonce deserves a fresh decision once the weather changes.
func (c *machine) refuse(cache *tenant, req *proto.Message, code int32) outcome {
	c.stats.Refused++
	c.stats.RefusedBy[code]++
	return outcome{wire: c.reply(cache, req, &proto.Message{Kind: proto.KindVCReply, Depth: code}), refused: code}
}

// open admits or refuses a circuit request. Quota beats capacity beats
// server error, so a tenant can tell "you asked too much" from "the
// schedule is full".
func (c *machine) open(tn *tenant, m *proto.Message, backlog int) outcome {
	c.stats.Requests++
	rate := int(m.Depth)
	if rate > 0 {
		c.stats.RequestsGtd++
	}
	if c.draining {
		return c.refuse(nil, m, RefuseDraining)
	}
	if backlog > shedWatermark {
		c.stats.Shed++
		out := c.refuse(nil, m, RefuseOverloaded)
		out.shed = true
		return out
	}
	if len(m.Links) != 1 || rate < 0 {
		return c.refuse(tn, m, RefuseBadRequest)
	}
	src, dst := topology.NodeID(m.Links[0].A), topology.NodeID(m.Links[0].B)
	if !c.hosts[src] || !c.hosts[dst] || src == dst {
		return c.refuse(tn, m, RefuseBadRequest)
	}
	if len(tn.vcs) >= c.maxVCs {
		return c.refuse(tn, m, RefuseQuotaVCs)
	}
	if rate > 0 && tn.gtd+rate > c.maxGtd {
		return c.refuse(tn, m, RefuseQuotaCells)
	}
	var (
		vc  cell.VCI
		err error
	)
	if rate > 0 {
		vc, err = c.lan.Reserve(src, dst, rate)
	} else {
		vc, err = c.lan.OpenBestEffort(src, dst)
	}
	if err != nil {
		// The LAN refused: for guaranteed requests that is bandwidth
		// central finding no route with schedule headroom — the paper's
		// admission control doing its job, not a fault.
		code := int32(RefuseCapacity)
		if rate == 0 {
			code = RefuseServerError // best-effort only fails without a legal route
		}
		return c.refuse(tn, m, code)
	}
	tn.vcs[vc] = rate
	tn.gtd += rate
	c.vcOwner[vc] = tn.id
	c.admitCount[tn.id]++
	if rate > 0 {
		c.stats.AdmittedGtd++
	} else {
		c.stats.AdmittedBE++
	}
	return outcome{wire: c.reply(tn, m, &proto.Message{Kind: proto.KindVCReply, Accept: true, Depth: int32(vc)})}
}

func (c *machine) close(tn *tenant, m *proto.Message) outcome {
	vc := cell.VCI(m.Depth)
	rate, ok := tn.vcs[vc]
	if !ok {
		return c.refuse(tn, m, RefuseUnknownVC)
	}
	_ = c.lan.Close(vc)
	delete(tn.vcs, vc)
	delete(c.vcOwner, vc)
	tn.gtd -= rate
	return outcome{wire: c.reply(tn, m, &proto.Message{Kind: proto.KindVCReply, Accept: true, Depth: int32(vc)})}
}

// traffic queues cells on a tenant's circuit. Fire-and-forget, like the
// data plane it feeds: no reply, no retry, no dedup — a duplicated burst
// is just more best-effort traffic. Cells past maxBurst, or that the LAN
// will not take, are refused and counted.
func (c *machine) traffic(tn *tenant, m *proto.Message) {
	vc := cell.VCI(m.From)
	if owner, ok := c.vcOwner[vc]; !ok || owner != tn.id || m.Depth <= 0 {
		return
	}
	var payload [cell.PayloadSize]byte
	n, sent := min(int64(m.Depth), maxBurst), int64(0)
	for sent < n && c.lan.Send(vc, payload) == nil {
		sent++
	}
	c.stats.TrafficCells += sent
	c.stats.TrafficRefused += int64(m.Depth) - sent
}

// closeAll closes every circuit tn holds and forgets the session,
// returning how many circuits it closed. Ascending VCI order keeps
// virtual-time replays identical.
func (c *machine) closeAll(tn *tenant) int {
	vcs := make([]cell.VCI, 0, len(tn.vcs))
	for vc := range tn.vcs {
		vcs = append(vcs, vc)
	}
	slices.Sort(vcs)
	for _, vc := range vcs {
		_ = c.lan.Close(vc)
		delete(c.vcOwner, vc)
	}
	delete(c.tenants, tn.id)
	return len(vcs)
}

// sweep garbage-collects expired sessions and past-grace orphans.
// Iteration is sorted so virtual-time replays are deterministic.
func (c *machine) sweep(now time.Time) {
	var expired []uint64
	for id, tn := range c.tenants {
		if now.After(tn.leaseExpiry) {
			expired = append(expired, id)
		}
	}
	slices.Sort(expired)
	for _, id := range expired {
		c.stats.LeaseGCVCs += int64(c.closeAll(c.tenants[id]))
		c.stats.LeaseExpired++
	}
	var due []cell.VCI
	for vc, dl := range c.orphans {
		if now.After(dl) {
			due = append(due, vc)
		}
	}
	slices.Sort(due)
	for _, vc := range due {
		_ = c.lan.Close(vc)
		delete(c.orphans, vc)
		c.stats.OrphansReclaimed++
	}
}
