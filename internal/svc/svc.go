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
//   - Overload SHEDS: when the request backlog passes Config.ShedWatermark
//     the server refuses opens with RefuseOverloaded instead of queueing
//     without bound; clients treat that as a backoff signal and retry.
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
package svc

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/cell"
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

// RefusalString names a refusal code.
func RefusalString(code int32) string {
	switch code {
	case RefuseBadRequest:
		return "bad-request"
	case RefuseQuotaVCs:
		return "quota-vcs"
	case RefuseQuotaCells:
		return "quota-cells"
	case RefuseCapacity:
		return "capacity"
	case RefuseUnknownVC:
		return "unknown-vc"
	case RefuseServerError:
		return "server-error"
	case RefuseStaleSession:
		return "stale-session"
	case RefuseDraining:
		return "draining"
	case RefuseOverloaded:
		return "overloaded"
	default:
		return fmt.Sprintf("refusal(%d)", code)
	}
}

// refusalCodes lists every code, for obs counter pre-registration.
var refusalCodes = []int32{RefuseBadRequest, RefuseQuotaVCs, RefuseQuotaCells,
	RefuseCapacity, RefuseUnknownVC, RefuseServerError, RefuseStaleSession,
	RefuseDraining, RefuseOverloaded}

// nonceCacheSize bounds the per-tenant idempotency window. A client
// retries a nonce only until its RPC deadline, so the window needs to
// cover in-flight requests, not history.
const nonceCacheSize = 128

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
	// StepSlots advances the data plane this many cell slots per idle
	// tick, draining queued traffic (default 256).
	StepSlots int64
	// Tick is the blocking-receive timeout: the pace of data-plane
	// stepping and gauge refresh when no requests arrive (default 2ms).
	Tick time.Duration
	// Incarnation identifies this server lifetime. Replies carry it and
	// requests must echo it; a mismatch (or an unknown session) is
	// refused with RefuseStaleSession. Zero derives a nonzero value from
	// the wall clock — pass an explicit value for deterministic runs and
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
	// ShedWatermark is the request-backlog depth past which vc-requests
	// are refused with RefuseOverloaded instead of queued (default 1024
	// messages in one receive batch).
	ShedWatermark int
	// Now is the clock (default time.Now). Virtual-time harnesses
	// (package chaos) substitute their own so lease expiry is
	// deterministic.
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
	// refusals land within one wall second (0 = trigger off).
	RefusalRateTrigger int
	// SpanSeed decorrelates span ids across processes (0: wall-derived).
	SpanSeed uint64
}

// Flight-recorder dump trigger codes (the Seq of a svc-dump span).
const (
	DumpPanic       = 1
	DumpDrain       = 2
	DumpShed        = 3
	DumpRefusalRate = 4
)

// dumpTriggerName names a trigger code — also the dump file suffix.
func dumpTriggerName(code uint64) string {
	switch code {
	case DumpPanic:
		return "panic"
	case DumpDrain:
		return "drain"
	case DumpShed:
		return "shed"
	case DumpRefusalRate:
		return "refusal-rate"
	default:
		return "unknown"
	}
}

// Server is the VC service. All fields are owned by the Serve goroutine
// except the small atomic mirrors noted below.
type Server struct {
	cfg     Config
	lan     *core.LAN
	tr      ctrlnet.Transport
	waiter  ctrlnet.Waiter
	hosts   map[topology.NodeID]bool
	roster  []proto.LinkRec
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
	orphans   map[cell.VCI]time.Time
	leaseMS   int32
	nextSweep time.Time
	// backlog is how many received-but-unhandled messages remain in the
	// current batch — the shed signal.
	backlog int
	stop    chan struct{}
	done    chan struct{}

	// Tracing state, all owned by the serve goroutine. sp == nil is
	// tracing fully off; cur* carry the in-flight request's trace context
	// from dispatch into the refusal paths.
	sp        *spanner
	curTrace  uint64
	curParent uint64
	curTenant uint64

	// Flight-recorder trigger state. shedCrossed latches the first
	// watermark crossing of a batch; refWindowStart/refWindow implement
	// the refusals-per-second trigger.
	shedCrossed    bool
	refWindowStart time.Time
	refWindow      int

	// Atomic mirrors readable from other goroutines (drain controllers,
	// Quiesced pollers) while Serve runs.
	draining int32
	nTenants int64
	nOrphans int64
	nVCs     int64

	stats Stats

	obsRequests  *obs.Counter
	obsReqGtd    *obs.Counter
	obsAdmitBE   *obs.Counter
	obsAdmitGtd  *obs.Counter
	obsRefused   map[int32]*obs.Counter
	obsTraffic   *obs.Counter
	obsReplays   *obs.Counter
	obsRenewals  *obs.Counter
	obsExpired   *obs.Counter
	obsGCVCs     *obs.Counter
	obsShed      *obs.Counter
	obsReclaimed *obs.Counter
	obsTenants   *obs.Gauge
	obsVCs       *obs.Gauge
	obsOrphans   *obs.Gauge
	obsDraining  *obs.Gauge
	obsIncarn    *obs.Gauge
	obsFairness  *obs.Gauge
	obsHandleLat *obs.Histogram
	obsDumps     *obs.Counter
}

// Stats is the server's aggregate accounting.
type Stats struct {
	Requests     int64
	AdmittedBE   int64
	AdmittedGtd  int64
	Refused      int64
	RefusedBy    map[int32]int64
	TrafficCells int64
	Replays      int64 // duplicate nonces answered from the cache
	Steps        int64 // data-plane slots advanced while serving

	LeaseRenewals    int64 // explicit lease heartbeats served
	LeaseExpired     int64 // tenants garbage-collected by lease expiry
	LeaseGCVCs       int64 // circuits closed by lease expiry
	OrphansAdopted   int64 // circuits inherited from a prior incarnation
	OrphansReclaimed int64 // inherited circuits closed after the grace
	Shed             int64 // vc-requests refused by overload shedding
}

// tenant is one tenant's server-side session state.
type tenant struct {
	id   uint64
	node topology.NodeID  // transport endpoint, refreshed per message
	vcs  map[cell.VCI]int // VCI -> reserved cells/frame (0 = best-effort)
	gtd  int              // total reserved cells/frame

	// leaseExpiry is when this session dies unless renewed.
	leaseExpiry time.Time

	// Idempotency: replies already sent, keyed by nonce, FIFO-bounded.
	replies map[uint64][]byte
	order   []uint64

	admitted int64
	refused  int64
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
		cfg.MaxGuaranteedPerTenant = cfg.LAN.FrameSlots() / 8
		if cfg.MaxGuaranteedPerTenant <= 0 {
			cfg.MaxGuaranteedPerTenant = 1
		}
	}
	if cfg.StepSlots <= 0 {
		cfg.StepSlots = 256
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
	if cfg.ShedWatermark <= 0 {
		cfg.ShedWatermark = 1024
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Incarnation == 0 {
		// Wall-derived, never zero: distinct across restarts at
		// second granularity, which is as fast as an operator restarts.
		cfg.Incarnation = int32(time.Now().Unix()&0x3FFFFFFF) | 1
	}
	s := &Server{
		cfg:        cfg,
		lan:        cfg.LAN,
		tr:         cfg.Transport,
		hosts:      make(map[topology.NodeID]bool),
		tenants:    make(map[uint64]*tenant),
		admitCount: make(map[uint64]int64),
		vcOwner:    make(map[cell.VCI]uint64),
		orphans:    make(map[cell.VCI]time.Time),
		leaseMS:    int32(cfg.LeaseDur / time.Millisecond),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	if s.leaseMS <= 0 {
		s.leaseMS = 1
	}
	s.waiter, _ = cfg.Transport.(ctrlnet.Waiter)
	for _, h := range cfg.LAN.Topology().Hosts() {
		s.hosts[h] = true
		s.roster = append(s.roster, proto.LinkRec{A: int32(h), B: int32(h)})
	}
	s.stats.RefusedBy = make(map[int32]int64)
	// Adopt what the previous incarnation left in the fabric (ascending
	// VCI, so virtual-time replays do identical work).
	deadline := cfg.Now().Add(cfg.OrphanGrace)
	for _, vc := range cfg.LAN.Circuits() {
		s.orphans[vc] = deadline
		s.stats.OrphansAdopted++
	}
	atomic.StoreInt64(&s.nOrphans, int64(len(s.orphans)))
	// A nil registry hands out nil instruments, and every obs method is a
	// no-op on a nil handle — observability off costs nothing.
	reg := cfg.Obs
	s.obsRequests = reg.Counter("svc_requests_total", "class", "best-effort")
	s.obsReqGtd = reg.Counter("svc_requests_total", "class", "guaranteed")
	s.obsAdmitBE = reg.Counter("svc_admitted_total", "class", "best-effort")
	s.obsAdmitGtd = reg.Counter("svc_admitted_total", "class", "guaranteed")
	s.obsRefused = make(map[int32]*obs.Counter)
	for _, code := range refusalCodes {
		s.obsRefused[code] = reg.Counter("svc_refused_total", "reason", RefusalString(code))
	}
	s.obsTraffic = reg.Counter("svc_traffic_cells_total")
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
	s.obsIncarn.Set(int64(s.cfg.Incarnation))
	s.obsOrphans.Set(int64(len(s.orphans)))
	s.sp = newSpanner(cfg.Spans, cfg.Ring, cfg.SpanSeed)
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
	var v int32
	if on {
		v = 1
	}
	prev := atomic.SwapInt32(&s.draining, v)
	s.obsDraining.Set(int64(v))
	if on && prev == 0 {
		// Entering drain is the start of an incident or a restart: preserve
		// the recent span history before wind-down overwrites the ring.
		s.dumpRecorder(DumpDrain, 0, 0, 0)
	}
}

// Draining reports drain mode.
func (s *Server) Draining() bool { return atomic.LoadInt32(&s.draining) != 0 }

// Quiesced reports that no sessions, circuits, or orphans remain — the
// drain-complete signal an operator polls before stopping the server.
// Safe from any goroutine.
func (s *Server) Quiesced() bool {
	return atomic.LoadInt64(&s.nTenants) == 0 &&
		atomic.LoadInt64(&s.nVCs) == 0 &&
		atomic.LoadInt64(&s.nOrphans) == 0
}

// OrphanVCs returns the number of inherited circuits not yet reclaimed.
// Safe from any goroutine.
func (s *Server) OrphanVCs() int64 { return atomic.LoadInt64(&s.nOrphans) }

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
		ds := s.waiter.Wait(s.cfg.Tick)
		if len(ds) == 0 {
			// Idle tick: drain queued traffic through the fabric,
			// collect expired leases and orphans, and refresh the
			// gauges tenants scrape.
			s.lan.Run(s.cfg.StepSlots)
			s.stats.Steps += s.cfg.StepSlots
			s.maybeSweep()
			s.updateGauges()
			continue
		}
		s.ServeBatch(ds)
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
func (s *Server) ServeOne(d ctrlnet.Delivery) { s.handle(d) }

// ServeBatch handles a batch of deliveries synchronously, with the batch
// backlog driving overload shedding: while more than Config.ShedWatermark
// messages still wait behind the one being handled, vc-requests are
// refused with RefuseOverloaded.
func (s *Server) ServeBatch(ds []ctrlnet.Delivery) {
	for i, d := range ds {
		s.backlog = len(ds) - i - 1
		s.handle(d)
	}
	s.backlog = 0
	s.shedCrossed = false
}

// Sweep runs one lease/orphan garbage-collection pass at the
// configured clock — the direct-drive path for tests and virtual-time
// harnesses (Serve calls it automatically on its own ticks).
func (s *Server) Sweep() { s.sweep(s.cfg.Now()) }

// maybeSweep rate-limits GC to an eighth of the lease (bounded to
// [Tick, 1s]) so an idle 2ms tick loop is not scanning tenants every
// pass.
func (s *Server) maybeSweep() {
	now := s.cfg.Now()
	if now.Before(s.nextSweep) {
		return
	}
	every := s.cfg.LeaseDur / 8
	if every < s.cfg.Tick {
		every = s.cfg.Tick
	}
	if every > time.Second {
		every = time.Second
	}
	s.nextSweep = now.Add(every)
	s.sweep(now)
}

// sweep garbage-collects expired sessions and past-grace orphans.
// Iteration is sorted so virtual-time replays are deterministic.
func (s *Server) sweep(now time.Time) {
	if len(s.tenants) > 0 {
		var expired []uint64
		for id, tn := range s.tenants {
			if now.After(tn.leaseExpiry) {
				expired = append(expired, id)
			}
		}
		sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
		for _, id := range expired {
			tn := s.tenants[id]
			vcs := make([]cell.VCI, 0, len(tn.vcs))
			for vc := range tn.vcs {
				vcs = append(vcs, vc)
			}
			sort.Slice(vcs, func(i, j int) bool { return vcs[i] < vcs[j] })
			for _, vc := range vcs {
				_ = s.lan.Close(vc)
				delete(s.vcOwner, vc)
				s.stats.LeaseGCVCs++
				s.obsGCVCs.Inc(0)
			}
			delete(s.tenants, id)
			s.stats.LeaseExpired++
			s.obsExpired.Inc(0)
		}
	}
	if len(s.orphans) > 0 {
		var due []cell.VCI
		for vc, dl := range s.orphans {
			if now.After(dl) {
				due = append(due, vc)
			}
		}
		sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
		for _, vc := range due {
			_ = s.lan.Close(vc)
			delete(s.orphans, vc)
			s.stats.OrphansReclaimed++
			s.obsReclaimed.Inc(0)
		}
	}
	s.syncMirrors()
}

func (s *Server) syncMirrors() {
	atomic.StoreInt64(&s.nTenants, int64(len(s.tenants)))
	atomic.StoreInt64(&s.nVCs, int64(len(s.vcOwner)))
	atomic.StoreInt64(&s.nOrphans, int64(len(s.orphans)))
}

// handle decodes and dispatches one delivery. With tracing off (and no
// registry) this is one decode and one dispatch, exactly the pre-tracing
// hot path; a traced request additionally emits queue/decode child spans
// before dispatch and a handle span after, all parented under the
// client's attempt span.
func (s *Server) handle(d ctrlnet.Delivery) {
	if s.sp == nil && s.obsHandleLat == nil {
		m, err := proto.Unmarshal(d.Wire)
		if err != nil {
			return // corrupt or foreign datagram: CRC did its job, drop
		}
		s.dispatch(d, m)
		return
	}
	t0 := time.Now()
	m, err := proto.Unmarshal(d.Wire)
	if err != nil {
		return
	}
	t1 := time.Now()
	traced := s.sp != nil && m.TraceID != 0
	if traced {
		t0us, t1us := t0.UnixMicro(), t1.UnixMicro()
		if d.RecvUS != 0 && d.RecvUS <= t0us {
			// Socket receive to handler start: the queue wait. Seq is the
			// batch backlog this request stood behind.
			s.sp.emit(&obs.Event{Kind: obs.KindSvcQueue, WallUS: d.RecvUS, Dur: t0us - d.RecvUS,
				Trace: m.TraceID, Span: s.sp.next(), Parent: m.Span,
				Node: s.cfg.Incarnation, Epoch: m.Epoch, Seq: uint64(s.backlog)})
		}
		s.sp.emit(&obs.Event{Kind: obs.KindSvcDecode, WallUS: t0us, Dur: t1us - t0us,
			Trace: m.TraceID, Span: s.sp.next(), Parent: m.Span,
			Node: s.cfg.Incarnation, Epoch: m.Epoch, Seq: uint64(m.Kind)})
		s.curTrace, s.curParent, s.curTenant = m.TraceID, m.Span, m.Epoch
	}
	s.dispatch(d, m)
	durUS := time.Since(t1).Microseconds()
	s.obsHandleLat.ObserveEx(0, durUS, m.TraceID)
	if traced {
		s.sp.emit(&obs.Event{Kind: obs.KindSvcHandle, WallUS: t1.UnixMicro(), Dur: durUS,
			Trace: m.TraceID, Span: s.sp.next(), Parent: m.Span,
			Node: s.cfg.Incarnation, Epoch: m.Epoch, Seq: uint64(m.Kind)})
		s.curTrace, s.curParent, s.curTenant = 0, 0, 0
	}
}

// dispatch routes one decoded message to its handler.
func (s *Server) dispatch(d ctrlnet.Delivery, m *proto.Message) {
	now := s.cfg.Now()
	switch m.Kind {
	case proto.KindDrain:
		s.handleDrain(d, m)
		return
	case proto.KindHello:
		s.handleHello(d, m, now)
		return
	case proto.KindTraffic:
		// Fire-and-forget; ownership is the only authentication, and a
		// live owner's lease is renewed by its own traffic.
		if tn, ok := s.tenants[m.Epoch]; ok {
			tn.node = d.From
			tn.leaseExpiry = now.Add(s.cfg.LeaseDur)
			s.handleTraffic(tn, m)
		}
		return
	case proto.KindVCRequest, proto.KindVCClose, proto.KindBye, proto.KindLease:
		tn, ok := s.tenants[m.Epoch]
		if !ok || m.From != s.cfg.Incarnation {
			// A session this incarnation never opened (the server
			// restarted, or the lease expired and was collected), or a
			// request stamped with a dead incarnation. The typed refusal
			// tells the client to re-attach rather than guess.
			s.refuseStale(d, m)
			return
		}
		tn.node = d.From
		tn.leaseExpiry = now.Add(s.cfg.LeaseDur)
		switch m.Kind {
		case proto.KindVCRequest:
			s.handleRequest(tn, m)
		case proto.KindVCClose:
			s.handleClose(tn, m)
		case proto.KindBye:
			s.handleBye(tn, m)
		case proto.KindLease:
			s.handleLease(tn, m)
		}
	default:
		// Reconfiguration kinds do not belong on the service socket.
	}
}

// handleHello opens (or refreshes) a session: the only kind that creates
// tenant state. The reply carries the incarnation (From) and the lease
// grant in ms (Depth) alongside the host roster.
func (s *Server) handleHello(d ctrlnet.Delivery, m *proto.Message, now time.Time) {
	tn, ok := s.tenants[m.Epoch]
	if !ok {
		tn = &tenant{
			id:      m.Epoch,
			vcs:     make(map[cell.VCI]int),
			replies: make(map[uint64][]byte),
		}
		s.tenants[m.Epoch] = tn
		s.syncMirrors()
	}
	tn.node = d.From
	tn.leaseExpiry = now.Add(s.cfg.LeaseDur)
	if s.replayed(tn, m.Initiator) {
		return
	}
	s.reply(tn, m, &proto.Message{
		Kind: proto.KindHello, Accept: true, Depth: s.leaseMS, Links: s.roster,
	})
}

// handleLease serves a heartbeat: the lease was already renewed by the
// dispatch path; the reply confirms the grant and the incarnation.
func (s *Server) handleLease(tn *tenant, m *proto.Message) {
	if s.replayed(tn, m.Initiator) {
		return
	}
	s.stats.LeaseRenewals++
	s.obsRenewals.Inc(0)
	s.reply(tn, m, &proto.Message{Kind: proto.KindLease, Accept: true, Depth: s.leaseMS})
}

// handleDrain toggles drain mode from the wire (Depth 1 = begin, 0 =
// cancel). Sessionless and uncached: an operator tool, not a tenant.
func (s *Server) handleDrain(d ctrlnet.Delivery, m *proto.Message) {
	s.Drain(m.Depth != 0)
	var state int32
	if s.Draining() {
		state = 1
	}
	s.sendTo(d.From, m, &proto.Message{Kind: proto.KindDrain, Accept: true, Depth: state})
}

// reply finishes one request: echo tenant, nonce, and timestamp, stamp
// the incarnation, cache the frame under the nonce, and send it to the
// tenant's endpoint.
func (s *Server) reply(tn *tenant, req *proto.Message, rep *proto.Message) {
	rep.Epoch = tn.id
	rep.Initiator = req.Initiator
	rep.VTimeUS = req.VTimeUS
	rep.From = s.cfg.Incarnation
	rep.TraceID = req.TraceID
	rep.Span = req.Span
	wire, err := proto.Marshal(rep)
	if err != nil {
		return
	}
	s.remember(tn, req.Initiator, wire)
	s.send(tn, wire)
}

// replyUncached is reply without the nonce cache: for weather refusals
// (draining, overloaded) whose answer should change when the weather
// does.
func (s *Server) replyUncached(tn *tenant, req *proto.Message, rep *proto.Message) {
	rep.Epoch = tn.id
	rep.Initiator = req.Initiator
	rep.VTimeUS = req.VTimeUS
	rep.From = s.cfg.Incarnation
	rep.TraceID = req.TraceID
	rep.Span = req.Span
	wire, err := proto.Marshal(rep)
	if err != nil {
		return
	}
	s.send(tn, wire)
}

// sendTo answers a sessionless request (stale refusals, drain acks)
// straight to the delivery's source endpoint.
func (s *Server) sendTo(node topology.NodeID, req, rep *proto.Message) {
	rep.Epoch = req.Epoch
	rep.Initiator = req.Initiator
	rep.VTimeUS = req.VTimeUS
	rep.From = s.cfg.Incarnation
	rep.TraceID = req.TraceID
	rep.Span = req.Span
	wire, err := proto.Marshal(rep)
	if err != nil {
		return
	}
	_, _ = s.tr.Send(s.cfg.Node, node, wire, 0)
}

func (s *Server) send(tn *tenant, wire []byte) {
	// Losing a reply is fine: the client retries the nonce and the cache
	// answers. Structural errors (no peer yet) are equally survivable.
	_, _ = s.tr.Send(s.cfg.Node, tn.node, wire, 0)
}

// replayed answers a duplicate nonce from the cache. Returns false for a
// fresh nonce.
func (s *Server) replayed(tn *tenant, nonce uint64) bool {
	wire, ok := tn.replies[nonce]
	if !ok {
		return false
	}
	s.stats.Replays++
	s.obsReplays.Inc(0)
	s.send(tn, wire)
	return true
}

func (s *Server) remember(tn *tenant, nonce uint64, wire []byte) {
	if _, ok := tn.replies[nonce]; !ok {
		tn.order = append(tn.order, nonce)
		if len(tn.order) > nonceCacheSize {
			delete(tn.replies, tn.order[0])
			tn.order = tn.order[1:]
		}
	}
	tn.replies[nonce] = wire
}

func (s *Server) countRefusal(tn *tenant, code int32) {
	if tn != nil {
		tn.refused++
	}
	s.stats.Refused++
	s.stats.RefusedBy[code]++
	if c, ok := s.obsRefused[code]; ok {
		c.Inc(0)
	}
	if s.sp != nil {
		if s.curTrace != 0 {
			s.sp.emit(&obs.Event{Kind: obs.KindSvcRefuse, WallUS: wallUS(),
				Trace: s.curTrace, Span: s.sp.next(), Parent: s.curParent,
				Node: s.cfg.Incarnation, Epoch: s.curTenant, Seq: uint64(code)})
		}
		if s.cfg.RefusalRateTrigger > 0 {
			now := s.cfg.Now()
			if now.Sub(s.refWindowStart) >= time.Second {
				s.refWindowStart = now
				s.refWindow = 0
			}
			s.refWindow++
			if s.refWindow == s.cfg.RefusalRateTrigger+1 {
				s.dumpRecorder(DumpRefusalRate, s.curTrace, s.curParent, s.curTenant)
			}
		}
	}
}

// dumpRecorder writes the flight recorder to DumpPath + "." + trigger and
// emits a svc-dump span carrying the trigger code (and, when the trigger
// fired inside a traced request, that request's context). Safe from any
// goroutine: the ring and span sinks are concurrency-safe.
func (s *Server) dumpRecorder(trigger, trace, parent, tnid uint64) {
	if s.sp != nil {
		s.sp.emit(&obs.Event{Kind: obs.KindSvcDump, WallUS: wallUS(),
			Trace: trace, Span: s.sp.next(), Parent: parent,
			Node: s.cfg.Incarnation, Epoch: tnid, Seq: trigger})
	}
	if s.cfg.Ring == nil || s.cfg.DumpPath == "" {
		return
	}
	if _, err := s.cfg.Ring.DumpFile(s.cfg.DumpPath + "." + dumpTriggerName(trigger)); err == nil {
		s.obsDumps.Inc(0)
	}
}

// DumpOnPanic is a deferred hook: if a panic is unwinding the calling
// goroutine, the flight recorder is dumped (trigger "panic") before the
// panic continues — the last seconds of spans survive the crash. Serve
// installs it; embedders driving ServeOne/ServeBatch directly can too.
func (s *Server) DumpOnPanic() {
	if r := recover(); r != nil {
		s.dumpRecorder(DumpPanic, 0, 0, 0)
		panic(r)
	}
}

func (s *Server) refuse(tn *tenant, req *proto.Message, code int32) {
	s.countRefusal(tn, code)
	s.reply(tn, req, &proto.Message{Kind: proto.KindVCReply, Accept: false, Depth: code})
}

// refuseTransient refuses without caching: the same nonce retried later
// deserves a fresh decision (drain lifted, backlog drained).
func (s *Server) refuseTransient(tn *tenant, req *proto.Message, code int32) {
	s.countRefusal(tn, code)
	s.replyUncached(tn, req, &proto.Message{Kind: proto.KindVCReply, Accept: false, Depth: code})
}

// refuseStale answers a request from a session this incarnation does not
// know. Uncached (there is no session to cache under) and typed so the
// client re-attaches instead of treating it as a permanent failure.
func (s *Server) refuseStale(d ctrlnet.Delivery, m *proto.Message) {
	s.countRefusal(nil, RefuseStaleSession)
	s.sendTo(d.From, m, &proto.Message{Kind: proto.KindVCReply, Accept: false, Depth: RefuseStaleSession})
}

func (s *Server) handleRequest(tn *tenant, m *proto.Message) {
	if s.replayed(tn, m.Initiator) {
		return
	}
	s.stats.Requests++
	rate := int(m.Depth)
	if rate > 0 {
		s.obsReqGtd.Inc(0)
	} else {
		s.obsRequests.Inc(0)
	}
	if s.Draining() {
		s.refuseTransient(tn, m, RefuseDraining)
		return
	}
	if s.backlog > s.cfg.ShedWatermark {
		s.stats.Shed++
		s.obsShed.Inc(0)
		if !s.shedCrossed {
			// First shed of this batch: capture the overload's onset once,
			// not once per refused request.
			s.shedCrossed = true
			s.dumpRecorder(DumpShed, s.curTrace, s.curParent, s.curTenant)
		}
		s.refuseTransient(tn, m, RefuseOverloaded)
		return
	}
	if len(m.Links) != 1 || rate < 0 {
		s.refuse(tn, m, RefuseBadRequest)
		return
	}
	src := topology.NodeID(m.Links[0].A)
	dst := topology.NodeID(m.Links[0].B)
	if !s.hosts[src] || !s.hosts[dst] || src == dst {
		s.refuse(tn, m, RefuseBadRequest)
		return
	}
	if len(tn.vcs) >= s.cfg.MaxVCsPerTenant {
		s.refuse(tn, m, RefuseQuotaVCs)
		return
	}
	if rate > 0 && tn.gtd+rate > s.cfg.MaxGuaranteedPerTenant {
		s.refuse(tn, m, RefuseQuotaCells)
		return
	}
	var (
		vc  cell.VCI
		err error
	)
	if rate > 0 {
		vc, err = s.lan.Reserve(src, dst, rate)
	} else {
		vc, err = s.lan.OpenBestEffort(src, dst)
	}
	if err != nil {
		// The LAN refused: for guaranteed requests that is bandwidth
		// central finding no route with schedule headroom — the paper's
		// admission control doing its job, not a fault.
		code := int32(RefuseCapacity)
		if rate == 0 {
			code = RefuseServerError // best-effort only fails without a legal route
		}
		s.refuse(tn, m, code)
		return
	}
	tn.vcs[vc] = rate
	tn.gtd += rate
	s.vcOwner[vc] = tn.id
	tn.admitted++
	s.admitCount[tn.id]++
	if rate > 0 {
		s.stats.AdmittedGtd++
		s.obsAdmitGtd.Inc(0)
	} else {
		s.stats.AdmittedBE++
		s.obsAdmitBE.Inc(0)
	}
	s.syncMirrors()
	s.reply(tn, m, &proto.Message{Kind: proto.KindVCReply, Accept: true, Depth: int32(vc)})
}

func (s *Server) handleClose(tn *tenant, m *proto.Message) {
	if s.replayed(tn, m.Initiator) {
		return
	}
	vc := cell.VCI(m.Depth)
	rate, ok := tn.vcs[vc]
	if !ok {
		s.refuse(tn, m, RefuseUnknownVC)
		return
	}
	_ = s.lan.Close(vc)
	delete(tn.vcs, vc)
	delete(s.vcOwner, vc)
	tn.gtd -= rate
	s.syncMirrors()
	s.reply(tn, m, &proto.Message{Kind: proto.KindVCReply, Accept: true, Depth: int32(vc)})
}

// handleTraffic queues cells on a tenant's circuit. Fire-and-forget, like
// the data plane it feeds: no reply, no retry, no dedup — a duplicated
// burst is just more best-effort traffic.
func (s *Server) handleTraffic(tn *tenant, m *proto.Message) {
	vc := cell.VCI(m.From)
	if s.vcOwner[vc] != tn.id {
		return
	}
	n := int(m.Depth)
	if n <= 0 {
		return
	}
	const maxBurst = 4096
	if n > maxBurst {
		n = maxBurst
	}
	var payload [cell.PayloadSize]byte
	sent := int64(0)
	for i := 0; i < n; i++ {
		if err := s.lan.Send(vc, payload); err != nil {
			break // ingress window full: the fabric is the back-pressure
		}
		sent++
	}
	s.stats.TrafficCells += sent
	s.obsTraffic.Add(0, sent)
}

// handleBye ends the session: every circuit closed, the session itself
// deleted. A retransmitted bye whose session is already gone gets a
// stale-session refusal, which the client treats as success — either way
// the session no longer exists.
func (s *Server) handleBye(tn *tenant, m *proto.Message) {
	if s.replayed(tn, m.Initiator) {
		return
	}
	vcs := make([]cell.VCI, 0, len(tn.vcs))
	for vc := range tn.vcs {
		vcs = append(vcs, vc)
	}
	sort.Slice(vcs, func(i, j int) bool { return vcs[i] < vcs[j] })
	for _, vc := range vcs {
		_ = s.lan.Close(vc)
		delete(s.vcOwner, vc)
	}
	tn.vcs = make(map[cell.VCI]int)
	tn.gtd = 0
	s.reply(tn, m, &proto.Message{Kind: proto.KindBye, Accept: true})
	delete(s.tenants, tn.id)
	s.syncMirrors()
}

// updateGauges refreshes the live-state gauges and the Jain fairness
// index over per-tenant admission counts: (Σx)² / (n·Σx²), 1000 = every
// tenant admitted equally, 1000/n = one tenant got everything. Refused
// tenants pull the index down — the isolation signal E32 asserts on.
func (s *Server) updateGauges() {
	if s.obsTenants == nil {
		return
	}
	s.obsTenants.Set(int64(len(s.tenants)))
	s.obsVCs.Set(int64(len(s.vcOwner)))
	s.obsOrphans.Set(int64(len(s.orphans)))
	s.obsFairness.Set(int64(JainX1000(s.AdmissionCounts())))
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
