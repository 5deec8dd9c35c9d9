// Package svc is the multi-tenant virtual-circuit service: the deployment
// shape the paper's AN2 control plane ultimately serves. Tenant sessions
// connect over a pluggable control transport (package ctrlnet — loopback
// UDP in production mode, the in-memory channel in tests), request
// guaranteed or best-effort circuits, and are admitted or refused against
// the same Slepian–Duguid frame-schedule capacity that backs
// bandwidth central (§4): a guaranteed grant here IS a reservation in
// every on-route switch's frame schedule.
//
// The session protocol reuses the proto reconfiguration frame — same
// header, same trailing CRC — with fields repurposed per kind:
//
//	kind        Epoch    Initiator  From            Depth             Accept  Links
//	hello       tenant   nonce      (reply) incarn  (reply) lease ms  —       (reply) host roster, one host per rec in A
//	vc-request  tenant   nonce      incarnation     rate (0 = BE)     —       [0] = (src, dst)
//	vc-reply    tenant   nonce      incarnation     VCI / refusal     grant   —
//	vc-close    tenant   nonce      incarnation     VCI               —       —
//	traffic     tenant   nonce      VCI             cells this burst  —       —
//	bye         tenant   nonce      incarnation     —                 (reply) —
//	lease       tenant   nonce      incarnation     (reply) lease ms  (reply) —
//	drain       —        nonce      —               1 = begin, 0 = cancel     —
//
// VTimeUS carries the sender's wall-clock µs stamp and is echoed in every
// reply so either side can measure RTT without synchronized clocks.
//
// # Survivability
//
// The service is built to survive the failures the paper's network
// survives one layer down: the server process dying, tenants vanishing,
// and overload.
//
//   - Sessions are LEASED. Hello opens a session and grants a lease
//     (Config.LeaseDur); any authenticated message renews it, and an idle
//     tenant keeps it alive with lease heartbeats. When a lease expires
//     the server garbage-collects the tenant — every VC closed, every
//     reserved cell returned — so a crashed client cannot leak resources
//     forever.
//   - The server stamps an INCARNATION number into every reply, and
//     clients echo it in every request. A restarted server (fresh
//     incarnation, empty tenant table) refuses requests from the previous
//     incarnation with RefuseStaleSession; clients re-attach
//     transparently — re-register and re-open circuits from their own
//     ledger. Circuits the dead incarnation left in the fabric are
//     adopted as ORPHANS at startup and reclaimed after an adoption
//     grace, so a crash strands capacity only until leases would have
//     expired anyway.
//   - DRAIN mode (Server.Drain, or a KindDrain message) refuses new
//     circuits with RefuseDraining while existing sessions wind down —
//     the graceful half of a restart.
//   - Overload SHEDS: when more than 1024 frames of one receive batch
//     wait behind a vc-request, it is refused with RefuseOverloaded
//     instead of queueing without bound; clients treat that as a backoff
//     signal and retry.
//
// The server is single-threaded over the transport's blocking Wait: every
// admission decision, schedule mutation, and data-plane step happens on
// one goroutine, exactly like bandwidth central's single admission point
// in the paper — concurrency lives in the tenants, not the allocator.
// UDP may duplicate or replay a datagram (and a timed-out client
// retransmits with the same nonce), so every state-changing request is
// idempotent: the server keeps a bounded per-tenant cache of reply frames
// keyed by nonce and re-sends the cached reply for a nonce it has already
// served, without re-executing the request. Draining, overload, and
// stale-session refusals are deliberately NOT cached: they describe the
// server's current weather, not the request's outcome, and a later retry
// of the same nonce deserves a fresh decision.
//
// The protocol itself is a clock-free, transport-free machine (server.go):
// a message and the time in, the reply frame out. Server is its shell.
package svc

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ctrlnet"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/topology"
)

// Refusal codes carried in a refused vc-reply's Depth field.
const (
	RefuseBadRequest   = 1 // unknown host, src == dst, malformed
	RefuseQuotaVCs     = 2 // tenant at MaxVCsPerTenant
	RefuseQuotaCells   = 3 // tenant at MaxGuaranteedPerTenant
	RefuseCapacity     = 4 // admission refused: no route with schedule headroom
	RefuseUnknownVC    = 5 // close/traffic for a VC the tenant does not own
	RefuseServerError  = 6 // internal failure opening the circuit
	RefuseStaleSession = 7 // unknown session or stale incarnation: re-attach
	RefuseDraining     = 8 // server draining: no new circuits
	RefuseOverloaded   = 9 // request backlog past the watermark: back off
)

// refusalNames names each refusal code.
var refusalNames = [...]string{RefuseBadRequest: "bad-request", RefuseQuotaVCs: "quota-vcs",
	RefuseQuotaCells: "quota-cells", RefuseCapacity: "capacity", RefuseUnknownVC: "unknown-vc",
	RefuseServerError: "server-error", RefuseStaleSession: "stale-session",
	RefuseDraining: "draining", RefuseOverloaded: "overloaded"}

// RefusalString names a refusal code.
func RefusalString(code int32) string {
	if code > 0 && int(code) < len(refusalNames) {
		return refusalNames[code]
	}
	return fmt.Sprintf("refusal(%d)", code)
}

// refusalCodes lists every code, for obs counter pre-registration.
var refusalCodes = []int32{RefuseBadRequest, RefuseQuotaVCs, RefuseQuotaCells,
	RefuseCapacity, RefuseUnknownVC, RefuseServerError, RefuseStaleSession,
	RefuseDraining, RefuseOverloaded}

// stepSlots is how many cell slots the data plane advances per idle tick.
const stepSlots = 256

// Config configures a Server.
type Config struct {
	// LAN is the network the service allocates circuits on. The server
	// owns it exclusively while serving (core.LAN is not goroutine-safe).
	LAN *core.LAN
	// Transport carries the session protocol. It must implement
	// ctrlnet.Waiter (blocking receive); the in-memory Net does not —
	// tests drive the in-memory path through ServeOne instead.
	Transport ctrlnet.Transport
	// Node is the server's address in the transport's id space. Tenant
	// endpoint ids are learned from incoming traffic.
	Node topology.NodeID
	// MaxVCsPerTenant caps concurrently open circuits per tenant
	// (default 32).
	MaxVCsPerTenant int
	// MaxGuaranteedPerTenant caps one tenant's total reserved
	// cells/frame (default: a quarter of one link's guaranteed capacity,
	// so no tenant can monopolize admission).
	MaxGuaranteedPerTenant int
	// Tick is the blocking-receive timeout: the pace of data-plane
	// stepping when no requests arrive (default 2ms).
	Tick time.Duration
	// Incarnation identifies this server lifetime. Replies carry it and
	// requests must echo it; a mismatch (or an unknown session) is
	// refused with RefuseStaleSession. Zero derives a nonzero value from
	// the clock — pass an explicit value for deterministic runs and
	// for "the restart bumped it" semantics in tests.
	Incarnation int32
	// LeaseDur is the session lease granted at hello and renewed by any
	// authenticated message (default 10s). An expired lease
	// garbage-collects the tenant: every VC closed, every quota freed.
	LeaseDur time.Duration
	// OrphanGrace is how long circuits inherited from a previous
	// incarnation (found open in the LAN at startup) are held for their
	// owners before being reclaimed (default: LeaseDur).
	OrphanGrace time.Duration
	// Now is the server's one clock (default time.Now): leases, spans and
	// handler latency all read it. Virtual-time harnesses (package chaos)
	// substitute their own so a run replays exactly.
	Now func() time.Time
	// Obs, if set, receives the service instruments (svc_* series).
	Obs *obs.Registry
	// Spans, if set, receives the server's service spans (svc-queue,
	// svc-decode, svc-handle, svc-refuse, svc-dump) as JSONL for offline
	// merge with a client-side stream (cmd/an2trace -merge). Only
	// requests that carry a trace context emit spans, so tracing costs
	// nothing until a traced client appears.
	Spans *obs.SpanWriter
	// Ring, if set, is the incident flight recorder: recent spans are
	// recorded even without Spans, and dumped to disk on a trigger so a
	// chaos-kill post-mortem does not require full tracing having been
	// on.
	Ring *obs.Ring
	// DumpPath is the flight-recorder dump destination: a trigger writes
	// the ring to DumpPath + "." + trigger ("drain", "shed",
	// "refusal-rate", "panic"). Empty disables dumping.
	DumpPath string
	// RefusalRateTrigger dumps the recorder when more than this many
	// refusals land within one second (0 = trigger off).
	RefusalRateTrigger int
	// SpanSeed decorrelates span ids across processes (0: clock-derived).
	SpanSeed uint64
}

// Flight-recorder dump trigger codes (the Seq of a svc-dump span).
const (
	DumpPanic       = 1
	DumpDrain       = 2
	DumpShed        = 3
	DumpRefusalRate = 4
)

// dumpTriggerNames names each trigger code — also the dump file suffix.
var dumpTriggerNames = [...]string{DumpPanic: "panic", DumpDrain: "drain", DumpShed: "shed",
	DumpRefusalRate: "refusal-rate"}

// Server is the VC service: the shell around the protocol machine it
// embeds. It owns the transport, the clock, spans, obs and the
// flight-recorder triggers. Everything is owned by the serving goroutine
// except the atomic mirrors noted below.
type Server struct {
	machine
	cfg       Config
	tr        ctrlnet.Transport
	waiter    ctrlnet.Waiter
	nextSweep time.Time
	stop      chan struct{}
	done      chan struct{}

	// sp == nil is tracing fully off.
	sp *spanner
	// Flight-recorder trigger state. shedCrossed latches the first shed
	// of a batch; refWindowStart/refWindow implement the
	// refusals-per-second trigger.
	shedCrossed    bool
	refWindowStart time.Time
	refWindow      int

	// Mirrors of the drain flag and the machine's map sizes, readable from
	// other goroutines (drain controllers, Quiesced pollers) while Serve
	// runs. Drain writes drainOn; publish writes the rest.
	drainOn                  atomic.Bool
	nTenants, nVCs, nOrphans atomic.Int64

	// seen is the machine's counts as last published to obs; seenRefused
	// holds its RefusedBy.
	seen        Stats
	seenRefused [RefuseOverloaded + 1]int64

	obsRequests       *obs.Counter
	obsReqGtd         *obs.Counter
	obsAdmitBE        *obs.Counter
	obsAdmitGtd       *obs.Counter
	obsRefused        [RefuseOverloaded + 1]*obs.Counter
	obsTraffic        *obs.Counter
	obsTrafficRefused *obs.Counter
	obsReplays        *obs.Counter
	obsRenewals       *obs.Counter
	obsExpired        *obs.Counter
	obsGCVCs          *obs.Counter
	obsShed           *obs.Counter
	obsReclaimed      *obs.Counter
	obsTenants        *obs.Gauge
	obsVCs            *obs.Gauge
	obsOrphans        *obs.Gauge
	obsDraining       *obs.Gauge
	obsIncarn         *obs.Gauge
	obsFairness       *obs.Gauge
	obsHandleLat      *obs.Histogram
	obsDumps          *obs.Counter
}

// ErrNoWaiter reports a transport without blocking receive.
var ErrNoWaiter = errors.New("svc: transport does not implement ctrlnet.Waiter")

// NewServer builds the service over an existing LAN. Circuits already
// open in the LAN (a previous incarnation's grants, surviving in the
// fabric the way reservations survive in real switch schedules) are
// adopted as orphans and reclaimed after Config.OrphanGrace unless the
// LAN is fresh.
func NewServer(cfg Config) (*Server, error) {
	if cfg.LAN == nil {
		return nil, errors.New("svc: nil LAN")
	}
	if cfg.Transport == nil {
		return nil, errors.New("svc: nil transport")
	}
	if cfg.MaxVCsPerTenant <= 0 {
		cfg.MaxVCsPerTenant = 32
	}
	if cfg.MaxGuaranteedPerTenant <= 0 {
		cfg.MaxGuaranteedPerTenant = max(cfg.LAN.FrameSlots()/8, 1)
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 2 * time.Millisecond
	}
	if cfg.LeaseDur <= 0 {
		cfg.LeaseDur = 10 * time.Second
	}
	if cfg.OrphanGrace <= 0 {
		cfg.OrphanGrace = cfg.LeaseDur
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Incarnation == 0 {
		// Clock-derived, never zero: distinct across restarts at second
		// granularity, which is as fast as an operator restarts.
		cfg.Incarnation = int32(cfg.Now().Unix()&0x3FFFFFFF) | 1
	}
	if cfg.SpanSeed == 0 {
		cfg.SpanSeed = uint64(cfg.Now().UnixNano())
	}
	s := &Server{
		machine: newMachine(cfg, cfg.Now()),
		cfg:     cfg,
		tr:      cfg.Transport,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		sp:      newSpanner(cfg.Spans, cfg.Ring, cfg.SpanSeed),
	}
	s.waiter, _ = cfg.Transport.(ctrlnet.Waiter)
	// A nil registry hands out nil instruments, and every obs method is a
	// no-op on a nil handle — observability off costs nothing.
	reg := cfg.Obs
	s.obsRequests = reg.Counter("svc_requests_total", "class", "best-effort")
	s.obsReqGtd = reg.Counter("svc_requests_total", "class", "guaranteed")
	s.obsAdmitBE = reg.Counter("svc_admitted_total", "class", "best-effort")
	s.obsAdmitGtd = reg.Counter("svc_admitted_total", "class", "guaranteed")
	for _, code := range refusalCodes {
		s.obsRefused[code] = reg.Counter("svc_refused_total", "reason", RefusalString(code))
	}
	s.obsTraffic = reg.Counter("svc_traffic_cells_total")
	s.obsTrafficRefused = reg.Counter("svc_traffic_refused_cells_total")
	s.obsReplays = reg.Counter("svc_replayed_replies_total")
	s.obsRenewals = reg.Counter("svc_lease_renewals_total")
	s.obsExpired = reg.Counter("svc_lease_expired_total")
	s.obsGCVCs = reg.Counter("svc_lease_gc_vcs_total")
	s.obsShed = reg.Counter("svc_shed_total")
	s.obsReclaimed = reg.Counter("svc_orphan_reclaimed_total")
	s.obsTenants = reg.Gauge("svc_tenants")
	s.obsVCs = reg.Gauge("svc_vcs_open")
	s.obsOrphans = reg.Gauge("svc_orphan_vcs")
	s.obsDraining = reg.Gauge("svc_draining")
	s.obsIncarn = reg.Gauge("svc_incarnation")
	s.obsFairness = reg.Gauge("svc_admission_fairness_x1000")
	s.obsHandleLat = reg.Histogram("svc_handle_latency_us")
	s.obsDumps = reg.Counter("svc_recorder_dumps_total")
	s.obsIncarn.Set(int64(cfg.Incarnation))
	s.publish()
	return s, nil
}

// Incarnation returns the server's incarnation stamp.
func (s *Server) Incarnation() int32 { return s.cfg.Incarnation }

// Stats returns a snapshot of the server's accounting. Call only when the
// serve loop is stopped (or from within the serving goroutine).
func (s *Server) Stats() Stats {
	out := s.stats
	out.RefusedBy = make(map[int32]int64, len(s.stats.RefusedBy))
	for k, v := range s.stats.RefusedBy {
		out.RefusedBy[k] = v
	}
	return out
}

// Drain enters (or leaves) drain mode: new circuits are refused with
// RefuseDraining while existing sessions keep renewing, closing, and
// saying bye. Safe to call from any goroutine while Serve runs.
func (s *Server) Drain(on bool) {
	var v int64
	if on {
		v = 1
	}
	prev := s.drainOn.Swap(on)
	s.obsDraining.Set(v)
	if on && !prev {
		// Entering drain is the start of an incident or a restart: preserve
		// the recent span history before wind-down overwrites the ring.
		s.dumpRecorder(DumpDrain, nil)
	}
}

// Draining reports drain mode.
func (s *Server) Draining() bool { return s.drainOn.Load() }

// Quiesced reports that no sessions, circuits, or orphans remain — the
// drain-complete signal an operator polls before stopping the server.
// Safe from any goroutine.
func (s *Server) Quiesced() bool {
	return s.nTenants.Load() == 0 && s.nVCs.Load() == 0 && s.nOrphans.Load() == 0
}

// OrphanVCs returns the number of inherited circuits not yet reclaimed.
// Safe from any goroutine.
func (s *Server) OrphanVCs() int64 { return s.nOrphans.Load() }

// Serve runs the service loop until Stop: block for traffic, handle it,
// and step the data plane on idle ticks. Requires a Waiter transport.
func (s *Server) Serve() error {
	defer close(s.done)
	defer s.DumpOnPanic()
	if s.waiter == nil {
		return ErrNoWaiter
	}
	for {
		select {
		case <-s.stop:
			return nil
		default:
		}
		if ds := s.waiter.Wait(s.cfg.Tick); len(ds) > 0 {
			s.ServeBatch(ds)
		} else {
			// Idle tick: drain queued traffic through the fabric. This is
			// the only place the data plane advances, so sustained request
			// load starves it (ROADMAP item 5(c)).
			s.lan.Run(stepSlots)
			s.stats.Steps += stepSlots
		}
		s.maybeSweep()
	}
}

// Stop ends the serve loop and waits for it to exit.
func (s *Server) Stop() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	// Close wakes the blocking Wait; the transport is the caller's, but
	// closing is idempotent and the only way to unblock promptly.
	s.tr.Close()
	<-s.done
}

// ServeOne handles a single already-received delivery synchronously — the
// in-memory-transport path used by deterministic tests.
func (s *Server) ServeOne(d ctrlnet.Delivery) {
	s.serve(d, 0)
	s.publish()
}

// ServeBatch handles a batch of deliveries synchronously, with the batch
// backlog driving overload shedding: while more than 1024 messages still
// wait behind the one being handled, vc-requests are refused with
// RefuseOverloaded.
func (s *Server) ServeBatch(ds []ctrlnet.Delivery) {
	for i, d := range ds {
		s.serve(d, len(ds)-i-1)
	}
	s.shedCrossed = false
	s.publish()
}

// Sweep runs one lease/orphan garbage-collection pass at the
// configured clock — the direct-drive path for tests and virtual-time
// harnesses (Serve calls it automatically on its own ticks).
func (s *Server) Sweep() { s.tick(s.cfg.Now()) }

// maybeSweep rate-limits GC to an eighth of the lease (bounded to
// [Tick, 1s]) so an idle 2ms tick loop is not scanning tenants every
// pass.
func (s *Server) maybeSweep() {
	now := s.cfg.Now()
	if now.Before(s.nextSweep) {
		return
	}
	s.nextSweep = now.Add(min(max(s.cfg.LeaseDur/8, s.cfg.Tick), time.Second))
	s.tick(now)
}

// tick is the sweep cadence: one GC pass, then everything published,
// including the Jain fairness index over lifetime admission counts, which
// allocates and so refreshes only here. (Σx)² / (n·Σx²): 1000 = every
// tenant admitted equally, 1000/n = one tenant got everything.
func (s *Server) tick(now time.Time) {
	s.sweep(now)
	s.publish()
	if s.obsFairness != nil {
		s.obsFairness.Set(int64(JainX1000(s.AdmissionCounts())))
	}
}

// serve decodes one delivery, steps the machine on the clock, sends the
// reply it decided, and records the request: handler latency and, for a
// traced request, its queue, decode, refuse and handle spans.
func (s *Server) serve(d ctrlnet.Delivery, backlog int) {
	timed := s.sp != nil || s.obsHandleLat != nil
	var t0 time.Time
	if timed {
		t0 = s.cfg.Now()
	}
	m, err := proto.Unmarshal(d.Wire)
	if err != nil {
		return // corrupt or foreign datagram: CRC did its job, drop
	}
	now := s.cfg.Now()
	traced := s.sp != nil && m.TraceID != 0
	if traced {
		t0us, nowUS := t0.UnixMicro(), now.UnixMicro()
		if d.RecvUS != 0 && d.RecvUS <= t0us {
			// Socket receive to handler start: the queue wait. Seq is the
			// batch backlog this request stood behind.
			s.span(obs.KindSvcQueue, m, d.RecvUS, t0us-d.RecvUS, uint64(backlog))
		}
		s.span(obs.KindSvcDecode, m, t0us, nowUS-t0us, uint64(m.Kind))
	}
	s.machine.draining = s.Draining()
	out := s.handle(now, d.From, m, backlog)
	if out.wire != nil {
		// Losing a reply is fine: the client retries the nonce and the
		// cache answers. Structural errors (no peer yet) are equally
		// survivable.
		_, _ = s.tr.Send(s.cfg.Node, out.to, out.wire, 0)
	}
	if m.Kind == proto.KindDrain {
		s.Drain(s.machine.draining)
	}
	if out.shed && !s.shedCrossed {
		// First shed of this batch: capture the overload's onset once,
		// not once per refused request.
		s.shedCrossed = true
		s.dumpRecorder(DumpShed, m)
	}
	if out.refused != 0 && s.sp != nil {
		if traced {
			s.span(obs.KindSvcRefuse, m, now.UnixMicro(), 0, uint64(out.refused))
		}
		if s.cfg.RefusalRateTrigger > 0 {
			if now.Sub(s.refWindowStart) >= time.Second {
				s.refWindowStart, s.refWindow = now, 0
			}
			if s.refWindow++; s.refWindow == s.cfg.RefusalRateTrigger+1 {
				s.dumpRecorder(DumpRefusalRate, m)
			}
		}
	}
	if timed {
		durUS := s.cfg.Now().Sub(now).Microseconds()
		s.obsHandleLat.ObserveEx(0, durUS, m.TraceID)
		if traced {
			s.span(obs.KindSvcHandle, m, now.UnixMicro(), durUS, uint64(m.Kind))
		}
	}
}

// span emits one server span under request m's trace context (none when m
// is nil or untraced), tagged with the incarnation and the tenant.
func (s *Server) span(kind string, m *proto.Message, startUS, dur int64, seq uint64) {
	ev := obs.Event{Kind: kind, WallUS: startUS, Dur: dur, Span: s.sp.next(),
		Node: s.cfg.Incarnation, Seq: seq}
	if m != nil && m.TraceID != 0 {
		ev.Trace, ev.Parent, ev.Epoch = m.TraceID, m.Span, m.Epoch
	}
	s.sp.emit(&ev)
}

// publish moves the obs counters by what the machine's counts moved since
// the last publication and refreshes the mirrors and the live gauges.
func (s *Server) publish() {
	s.nTenants.Store(int64(len(s.tenants)))
	s.nVCs.Store(int64(len(s.vcOwner)))
	s.nOrphans.Store(int64(len(s.orphans)))
	if s.cfg.Obs == nil {
		return
	}
	now, was := &s.stats, &s.seen
	s.obsRequests.Add(0, now.Requests-now.RequestsGtd-(was.Requests-was.RequestsGtd))
	s.obsReqGtd.Add(0, now.RequestsGtd-was.RequestsGtd)
	s.obsAdmitBE.Add(0, now.AdmittedBE-was.AdmittedBE)
	s.obsAdmitGtd.Add(0, now.AdmittedGtd-was.AdmittedGtd)
	s.obsTraffic.Add(0, now.TrafficCells-was.TrafficCells)
	s.obsTrafficRefused.Add(0, now.TrafficRefused-was.TrafficRefused)
	s.obsReplays.Add(0, now.Replays-was.Replays)
	s.obsRenewals.Add(0, now.LeaseRenewals-was.LeaseRenewals)
	s.obsExpired.Add(0, now.LeaseExpired-was.LeaseExpired)
	s.obsGCVCs.Add(0, now.LeaseGCVCs-was.LeaseGCVCs)
	s.obsShed.Add(0, now.Shed-was.Shed)
	s.obsReclaimed.Add(0, now.OrphansReclaimed-was.OrphansReclaimed)
	for _, code := range refusalCodes {
		n := now.RefusedBy[code]
		s.obsRefused[code].Add(0, n-s.seenRefused[code])
		s.seenRefused[code] = n
	}
	*was = *now
	s.obsTenants.Set(int64(len(s.tenants)))
	s.obsVCs.Set(int64(len(s.vcOwner)))
	s.obsOrphans.Set(int64(len(s.orphans)))
}

// dumpRecorder writes the flight recorder to DumpPath + "." + trigger and
// emits a svc-dump span carrying the trigger code and, when a traced
// request m fired it, that request's context. Safe from any goroutine:
// the ring and span sinks are concurrency-safe.
func (s *Server) dumpRecorder(trigger uint64, m *proto.Message) {
	if s.sp != nil {
		s.span(obs.KindSvcDump, m, s.cfg.Now().UnixMicro(), 0, trigger)
	}
	if s.cfg.Ring == nil || s.cfg.DumpPath == "" {
		return
	}
	if _, err := s.cfg.Ring.DumpFile(s.cfg.DumpPath + "." + dumpTriggerNames[trigger]); err == nil {
		s.obsDumps.Inc(0)
	}
}

// DumpOnPanic is a deferred hook: if a panic is unwinding the calling
// goroutine, the flight recorder is dumped (trigger "panic") before the
// panic continues — the last seconds of spans survive the crash. Serve
// installs it; embedders driving ServeOne/ServeBatch directly can too.
func (s *Server) DumpOnPanic() {
	if r := recover(); r != nil {
		s.dumpRecorder(DumpPanic, nil)
		panic(r)
	}
}

// CheckInvariant checks the server's books: each tenant's guaranteed total
// is the sum of its circuits' rates; vcOwner is exactly the tenants'
// circuits, each under its owner; owned circuits and orphans are disjoint
// and open in the LAN; each nonce cache is a consistent FIFO within its
// bound; and the mirrors match the maps. Call it from the serving
// goroutine, between deliveries.
func (s *Server) CheckInvariant() error {
	owned := 0
	for id, tn := range s.tenants {
		gtd := 0
		for vc, rate := range tn.vcs {
			gtd += rate
			if owner, ok := s.vcOwner[vc]; !ok || owner != id {
				return fmt.Errorf("svc: tenant %d holds VC %d, owner on record %d (present %v)", id, vc, owner, ok)
			}
			if _, ok := s.orphans[vc]; ok {
				return fmt.Errorf("svc: VC %d is both tenant %d's and an orphan", vc, id)
			}
			if _, ok := s.lan.CircuitPath(vc); !ok {
				return fmt.Errorf("svc: tenant %d holds VC %d, which is not open in the LAN", id, vc)
			}
		}
		if gtd != tn.gtd {
			return fmt.Errorf("svc: tenant %d books %d guaranteed cells, its VCs sum to %d", id, tn.gtd, gtd)
		}
		if len(tn.order) != len(tn.replies) || len(tn.order) > nonceCacheSize {
			return fmt.Errorf("svc: tenant %d nonce cache holds %d replies in %d order entries (bound %d)",
				id, len(tn.replies), len(tn.order), nonceCacheSize)
		}
		owned += len(tn.vcs)
	}
	if owned != len(s.vcOwner) {
		return fmt.Errorf("svc: vcOwner has %d VCs, the tenants hold %d", len(s.vcOwner), owned)
	}
	for vc := range s.orphans {
		if _, ok := s.lan.CircuitPath(vc); !ok {
			return fmt.Errorf("svc: orphan VC %d is not open in the LAN", vc)
		}
	}
	if s.nTenants.Load() != int64(len(s.tenants)) || s.nVCs.Load() != int64(len(s.vcOwner)) ||
		s.nOrphans.Load() != int64(len(s.orphans)) {
		return fmt.Errorf("svc: mirrors %d tenants / %d VCs / %d orphans, maps %d / %d / %d",
			s.nTenants.Load(), s.nVCs.Load(), s.nOrphans.Load(), len(s.tenants), len(s.vcOwner), len(s.orphans))
	}
	return nil
}

// AdmissionCounts returns each tenant's lifetime admitted-request count,
// including tenants whose sessions have since ended.
func (s *Server) AdmissionCounts() []int64 {
	out := make([]int64, 0, len(s.admitCount))
	for _, n := range s.admitCount {
		out = append(out, n)
	}
	return out
}

// JainX1000 is Jain's fairness index scaled by 1000 (0 with no samples).
// Refused tenants pull the index down — the isolation signal E32 asserts
// on.
func JainX1000(xs []int64) int {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		f := float64(x)
		sum += f
		sq += f * f
	}
	if sq == 0 {
		return 1000 // nobody admitted anything: trivially equal
	}
	return int(1000 * sum * sum / (float64(len(xs)) * sq))
}
