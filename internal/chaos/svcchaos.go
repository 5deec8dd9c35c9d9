package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/ctrlnet"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/svc"
	"repro/internal/topology"
)

// This file extends the chaos harness one layer up: from the recovery
// stack to the multi-tenant VC SERVICE built on it. An SvcSchedule
// scripts tenants churning sessions over a faulty control channel while
// the server process is killed and restarted mid-run; the harness drives
// everything on a virtual millisecond clock (the server's lease clock is
// injected, and each tenant is the shipped client machine, svc.Session,
// fed the same clock), so a schedule replays bit-for-bit and SvcShrink can
// reduce a failure the same way Shrink reduces a recovery failure.
//
// Invariants:
//
//   - conservation (every tick): the data plane's cell accounting stays
//     balanced while circuits churn, leases expire, and orphans are
//     reclaimed.
//   - svc-books (every tick): the live server's books balance
//     (svc.Server.CheckInvariant): quotas, circuit ownership, orphans,
//     nonce caches, mirrors.
//   - no-double-grant (every reply): one (tenant, nonce) request is
//     granted at most one VCI, however many times loss and duplication
//     make the server answer it.
//   - no-orphan-vc (end state): after every surviving tenant says bye
//     and the clock passes lease expiry and the orphan grace, the LAN
//     holds zero circuits and the server is quiesced — nothing a crash,
//     a vanished tenant, or a lost reply ever leaked survives.

// SvcOutage is one scheduled service-layer fault over [StartMS, EndMS)
// in virtual milliseconds: a server kill window (the process is dead;
// datagrams to it vanish; at EndMS a NEW incarnation starts over the
// same LAN) or a control brownout (every control datagram in the window
// is lost, in both directions — the engine's total-loss burst).
type SvcOutage struct {
	Kill    bool
	StartMS int64
	EndMS   int64
}

func (o SvcOutage) String() string {
	if o.Kill {
		return fmt.Sprintf("server killed [%d,%d)ms", o.StartMS, o.EndMS)
	}
	return fmt.Sprintf("ctrl-brownout [%d,%d)ms", o.StartMS, o.EndMS)
}

// SvcSchedule is one complete service chaos run: pure data, fully
// deterministic from its fields.
type SvcSchedule struct {
	// Seed drives tenant behavior and every control-channel fault.
	Seed int64
	// HorizonMS is the churn phase length; GraceMS the wind-down in which
	// surviving tenants say bye and late datagrams settle.
	HorizonMS, GraceMS int64
	// Tenants is how many tenant state machines churn; Vanish of them
	// stop cold partway through without bye — the crash-without-goodbye
	// case lease GC exists for.
	Tenants, Vanish int
	// LeaseDurMS / OrphanGraceMS configure the server's survivability
	// clocks (virtual ms).
	LeaseDurMS, OrphanGraceMS int64
	// Faults is the baseline control-channel fault model, applied in both
	// directions (its Seed is ignored; Schedule.Seed rules).
	Faults ctrlnet.Config
	// UnsafeNoLeaseGC disables lease/orphan garbage collection — the
	// regression the harness exists to catch: with it set, any tenant
	// that vanishes without bye leaks its circuits forever and the
	// no-orphan-vc invariant must fire.
	UnsafeNoLeaseGC bool
	Outages         []SvcOutage
}

// String prints the schedule as a replayable reproducer.
func (s SvcSchedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos.SvcSchedule{seed=%d horizon=%dms grace=%dms tenants=%d vanish=%d lease=%dms orphan-grace=%dms drop=%.2f dup=%.2f reorder=%.2f",
		s.Seed, s.HorizonMS, s.GraceMS, s.Tenants, s.Vanish,
		s.LeaseDurMS, s.OrphanGraceMS,
		s.Faults.DropProb, s.Faults.DupProb, s.Faults.ReorderProb)
	if s.UnsafeNoLeaseGC {
		b.WriteString(" UNSAFE-no-lease-gc")
	}
	b.WriteString("}")
	for i, o := range s.Outages {
		fmt.Fprintf(&b, "\n  outage %d: %s", i, o)
	}
	return b.String()
}

// SvcGenConfig tunes GenerateSvc; the zero value uses the defaults below.
type SvcGenConfig struct {
	HorizonMS   int64   // default 3000
	GraceMS     int64   // default 600
	Tenants     int     // default 8
	MaxVanish   int     // default 2
	MinKills    int     // default 1
	MaxKills    int     // default 2
	BurstProb   float64 // chance of an extra control brownout (default 0.5)
	DropProb    float64 // baseline loss (default 0.10)
	DupProb     float64 // default 0.05
	ReorderProb float64 // default 0.05
}

func (c SvcGenConfig) withDefaults() SvcGenConfig {
	if c.HorizonMS <= 0 {
		c.HorizonMS = 3000
	}
	if c.GraceMS <= 0 {
		c.GraceMS = 600
	}
	if c.Tenants <= 0 {
		c.Tenants = 8
	}
	if c.MaxVanish == 0 {
		c.MaxVanish = 2
	}
	if c.MinKills <= 0 {
		c.MinKills = 1
	}
	if c.MaxKills < c.MinKills {
		c.MaxKills = c.MinKills + 1
	}
	if c.BurstProb == 0 {
		c.BurstProb = 0.5
	}
	if c.DropProb == 0 {
		c.DropProb = 0.10
	}
	if c.DupProb == 0 {
		c.DupProb = 0.05
	}
	if c.ReorderProb == 0 {
		c.ReorderProb = 0.05
	}
	return c
}

// GenerateSvc builds a random service schedule from the seed: 1–2 server
// kills and possibly a control-loss burst, every outage over before the
// wind-down so the end-state invariants are fair.
func GenerateSvc(seed int64, cfg SvcGenConfig) SvcSchedule {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed ^ 0x51CE995))
	s := SvcSchedule{
		Seed:          seed,
		HorizonMS:     cfg.HorizonMS,
		GraceMS:       cfg.GraceMS,
		Tenants:       cfg.Tenants,
		Vanish:        rng.Intn(cfg.MaxVanish + 1),
		LeaseDurMS:    400,
		OrphanGraceMS: 400,
		Faults: ctrlnet.Config{
			DropProb:    cfg.DropProb,
			DupProb:     cfg.DupProb,
			ReorderProb: cfg.ReorderProb,
		},
	}
	lastStart := cfg.HorizonMS - 600
	kills := cfg.MinKills + rng.Intn(cfg.MaxKills-cfg.MinKills+1)
	for i := 0; i < kills; i++ {
		start := 300 + rng.Int63n(lastStart-300+1)
		end := start + 100 + rng.Int63n(200)
		if max := cfg.HorizonMS - 200; end > max {
			end = max
		}
		s.Outages = append(s.Outages, SvcOutage{Kill: true, StartMS: start, EndMS: end})
	}
	if rng.Float64() < cfg.BurstProb {
		start := 300 + rng.Int63n(lastStart-300+1)
		end := start + 100 + rng.Int63n(150)
		if max := cfg.HorizonMS - 200; end > max {
			end = max
		}
		s.Outages = append(s.Outages, SvcOutage{StartMS: start, EndMS: end})
	}
	return s
}

// SvcResult is one completed (or invariant-terminated) service chaos run.
type SvcResult struct {
	// Violation is nil when every invariant held.
	Violation *Violation
	// Restarts is how many new server incarnations the schedule forced.
	Restarts int
	// Grants / Reattaches / Byes are tenant-observed totals: circuits
	// granted (fresh opens and re-attach reopens), completed re-attach
	// rounds, and sessions whose bye completed.
	Grants     int64
	Reattaches int64
	Byes       int64
	// FinalStats is the LAST incarnation's server accounting.
	FinalStats svc.Stats
	// Recorder is the server-side flight recorder at the end of the run:
	// one ring shared by every incarnation, so the spans that led into a
	// kill survive the restart that followed it. Scripted tenants stamp a
	// deterministic trace id (tenant<<32 | call sequence) on every request,
	// so a recorder span is attributable without any merge step.
	Recorder []obs.Event
}

// ---- harness ----------------------------------------------------------

const (
	svcServerNode  = topology.NodeID(0)
	svcTenantBase  = topology.NodeID(100)
	svcTimeoutMS   = 40 // the tenants' client Timeout, virtual ms
	svcMaxAttempts = 10 // and their client Retries
	svcStepSlots   = 16 // data-plane slots advanced per virtual ms
)

type svcDue struct {
	seq int64 // FIFO tiebreak for equal due times
	d   ctrlnet.Delivery
}

// svcHarness owns the whole virtual world: LAN, server, fault engine,
// tenants, and the two delayed-delivery queues.
type svcHarness struct {
	s      SvcSchedule
	lan    *core.LAN
	hosts  []topology.NodeID
	eng    *ctrlnet.Net
	srv    *svc.Server
	ring   *obs.Ring // shared across incarnations: the flight recorder
	alive  bool
	incarn int32

	nowMS int64
	seq   int64

	toServer []svcDue
	toTenant []svcDue

	tenants []*svcTenant // tenant i is node svcTenantBase+i

	// grants maps (tenant, nonce) -> granted VCI: the double-grant check.
	grants map[[2]uint64]cell.VCI

	res SvcResult
}

// svcChannel is the server's Transport: everything the server sends goes
// back through the shared fault engine toward the tenants.
type svcChannel struct{ h *svcHarness }

func (c *svcChannel) Send(from, to topology.NodeID, wire []byte, _ int64) ([]ctrlnet.Delivery, error) {
	c.h.inject(from, to, wire, false)
	return nil, nil
}
func (c *svcChannel) Poll() []ctrlnet.Delivery  { return nil }
func (c *svcChannel) Flush() []ctrlnet.Delivery { return nil }
func (c *svcChannel) Close() error              { return nil }

func (h *svcHarness) nowUS() int64 { return h.nowMS * 1000 }

func (h *svcHarness) clock() time.Time {
	return time.Unix(0, h.nowUS()*int64(time.Microsecond))
}

// inject threads one wire image through the fault engine and queues the
// surviving images for their virtual arrival tick.
func (h *svcHarness) inject(from, to topology.NodeID, wire []byte, toServer bool) {
	for _, d := range h.eng.Transmit(from, to, wire, h.nowUS()) {
		h.seq++
		if toServer {
			h.toServer = append(h.toServer, svcDue{seq: h.seq, d: d})
		} else {
			h.toTenant = append(h.toTenant, svcDue{seq: h.seq, d: d})
		}
	}
}

// drainDue pops every delivery due at or before now, in (time, seq) order.
func drainDue(q []svcDue, nowUS int64) (due, rest []svcDue) {
	for _, m := range q {
		if m.d.AtUS <= nowUS {
			due = append(due, m)
		} else {
			rest = append(rest, m)
		}
	}
	sort.Slice(due, func(i, j int) bool {
		if due[i].d.AtUS != due[j].d.AtUS {
			return due[i].d.AtUS < due[j].d.AtUS
		}
		return due[i].seq < due[j].seq
	})
	return due, rest
}

// startServer boots a new incarnation over the (shared, surviving) LAN.
func (h *svcHarness) startServer() error {
	h.incarn++
	lease := time.Duration(h.s.LeaseDurMS) * time.Millisecond
	grace := time.Duration(h.s.OrphanGraceMS) * time.Millisecond
	if h.s.UnsafeNoLeaseGC {
		// The regression arm: leases never expire, orphans are never
		// reclaimed — whatever is leaked stays leaked.
		lease = 1000 * time.Hour
		grace = 1000 * time.Hour
	}
	srv, err := svc.NewServer(svc.Config{
		LAN:                    h.lan,
		Transport:              &svcChannel{h: h},
		Node:                   svcServerNode,
		MaxVCsPerTenant:        4,
		MaxGuaranteedPerTenant: 4,
		Incarnation:            h.incarn,
		LeaseDur:               lease,
		OrphanGrace:            grace,
		Now:                    h.clock,
		Ring:                   h.ring,
		SpanSeed:               uint64(h.s.Seed)*0x9E3779B9 + uint64(h.incarn),
	})
	if err != nil {
		return err
	}
	h.srv = srv
	h.alive = true
	return nil
}

// RunSvc executes the schedule and checks every invariant. A non-nil
// error is a harness failure; findings come back in SvcResult.Violation.
func RunSvc(s SvcSchedule) (*SvcResult, error) {
	if s.Tenants <= 0 {
		s.Tenants = 8
	}
	if s.LeaseDurMS <= 0 {
		s.LeaseDurMS = 400
	}
	if s.OrphanGraceMS <= 0 {
		s.OrphanGraceMS = 400
	}
	if s.HorizonMS <= 0 {
		s.HorizonMS = 3000
	}
	if s.GraceMS <= 0 {
		s.GraceMS = 600
	}
	g := fixtureGraph()
	lan, err := core.New(core.Config{Topology: g, FrameSlots: 64, Seed: s.Seed})
	if err != nil {
		return nil, err
	}
	faults := s.Faults
	faults.Seed = s.Seed ^ 0x7E57ED
	// Brownout outages become the engine's native total-loss windows
	// (virtual µs).
	for _, o := range s.Outages {
		if !o.Kill {
			faults.Bursts = append(faults.Bursts,
				ctrlnet.Window{FromUS: o.StartMS * 1000, ToUS: o.EndMS * 1000})
		}
	}
	eng, err := ctrlnet.New(faults)
	if err != nil {
		return nil, err
	}
	h := &svcHarness{
		s:      s,
		lan:    lan,
		hosts:  lan.Topology().Hosts(),
		eng:    eng,
		ring:   obs.NewRing(2048),
		grants: make(map[[2]uint64]cell.VCI),
	}
	if err := h.startServer(); err != nil {
		return nil, err
	}
	for i := 0; i < s.Tenants; i++ {
		node := svcTenantBase + topology.NodeID(i)
		tn := newSvcTenant(h, node, uint64(i+1), s.Seed+int64(i)*7919)
		if i < s.Vanish {
			// Vanishing tenants stop cold somewhere in the middle third.
			tn.vanishAtMS = s.HorizonMS/3 + tn.rng.Int63n(s.HorizonMS/3)
		}
		h.tenants = append(h.tenants, tn)
	}

	total := s.HorizonMS + s.GraceMS
	for h.nowMS = 0; h.nowMS <= total; h.nowMS++ {
		// Server process lifecycle.
		for _, o := range s.Outages {
			if !o.Kill {
				continue
			}
			if h.nowMS == o.StartMS && h.alive {
				h.alive = false
				h.res.FinalStats = h.srv.Stats()
			}
			if h.nowMS == o.EndMS && !h.alive {
				if err := h.startServer(); err != nil {
					return nil, err
				}
				h.res.Restarts++
			}
		}

		// Deliver what is due. Datagrams addressed to a dead process
		// vanish, exactly like a closed socket's ICMP-less silence.
		var due []svcDue
		due, h.toServer = drainDue(h.toServer, h.nowUS())
		for _, m := range due {
			if h.alive {
				h.srv.ServeOne(m.d)
			}
		}
		due, h.toTenant = drainDue(h.toTenant, h.nowUS())
		for _, m := range due {
			if i := int(m.d.To - svcTenantBase); i >= 0 && i < len(h.tenants) {
				if v := h.tenants[i].onDelivery(m.d); v != nil {
					h.res.Violation = v
					return h.finish(), nil
				}
			}
		}

		// Tenants act, in node order.
		for _, tn := range h.tenants {
			tn.step()
		}

		// The fabric and the lease clock advance.
		lan.Run(svcStepSlots)
		if h.alive {
			h.srv.Sweep()
			if err := h.srv.CheckInvariant(); err != nil {
				h.res.Violation = &Violation{Slot: h.nowMS, Invariant: "svc-books", Detail: err.Error()}
				return h.finish(), nil
			}
		}
		if !lan.Snapshot().Conserved() {
			h.res.Violation = &Violation{Slot: h.nowMS, Invariant: "conservation",
				Detail: fmt.Sprintf("cell accounting broken: %+v", lan.Snapshot())}
			return h.finish(), nil
		}
	}

	// End state: anything the engine still holds dies with the run, then
	// the clock jumps past lease expiry and the orphan grace so every
	// leaked session and adopted orphan must have been collected.
	h.eng.Flush()
	h.nowMS = total + s.LeaseDurMS + s.OrphanGraceMS + 100
	if h.alive {
		h.srv.Sweep()
		lan.Run(svcStepSlots)
	}
	if n := len(lan.Circuits()); n != 0 {
		h.res.Violation = &Violation{Slot: h.nowMS, Invariant: "no-orphan-vc",
			Detail: fmt.Sprintf("%d circuits survive every bye, lease expiry, and the orphan grace", n)}
	} else if h.alive && !h.srv.Quiesced() {
		h.res.Violation = &Violation{Slot: h.nowMS, Invariant: "no-orphan-vc",
			Detail: "server not quiesced after lease expiry"}
	} else if !lan.Snapshot().Conserved() {
		h.res.Violation = &Violation{Slot: h.nowMS, Invariant: "conservation",
			Detail: fmt.Sprintf("end-state cell accounting broken: %+v", lan.Snapshot())}
	}
	return h.finish(), nil
}

func (h *svcHarness) finish() *SvcResult {
	if h.alive {
		h.res.FinalStats = h.srv.Stats()
	}
	for _, tn := range h.tenants {
		st := tn.s.Stats()
		h.res.Grants += tn.grants + st.ReattachVCs
		h.res.Reattaches += st.Reattaches
		if tn.done {
			h.res.Byes++
		}
	}
	h.res.Recorder = h.ring.Snapshot()
	return &h.res
}

// ---- tenants ------------------------------------------------------------

// svcTenant is one scripted tenant: an intent planner driving the shipped
// client machine, svc.Session, on the harness clock. The planner decides
// what the tenant does and when; everything it says on the wire (nonces,
// retransmission and backoff, re-attach, ledger replay, aliasing) is the
// session's.
type svcTenant struct {
	h    *svcHarness
	node topology.NodeID
	id   uint64
	rng  *rand.Rand
	s    *svc.Session

	calls    uint64 // calls started: the low half of each call's trace id
	busy     bool   // a call is in flight
	op       proto.Kind
	deadline time.Time

	vanishAtMS int64 // 0: never vanishes
	vanished   bool
	byeSent    bool
	done       bool // bye acknowledged (or refused-stale: same thing)

	grants int64 // fresh opens granted (reopens are in the session's stats)
}

func newSvcTenant(h *svcHarness, node topology.NodeID, id uint64, seed int64) *svcTenant {
	t := &svcTenant{h: h, node: node, id: id, rng: rand.New(rand.NewSource(seed))}
	t.s = svc.NewSession(svc.ClientConfig{
		Tenant: id, Timeout: svcTimeoutMS * time.Millisecond, Retries: svcMaxAttempts,
	}, rand.New(rand.NewSource(t.rng.Int63())))
	return t
}

// step is one virtual millisecond of tenant life.
func (t *svcTenant) step() {
	if t.vanishAtMS > 0 && t.h.nowMS >= t.vanishAtMS {
		t.vanished = true // stops cold: no bye, no further frame
	}
	if t.vanished || t.done {
		return
	}
	now := t.h.clock()
	switch {
	case t.h.nowMS >= t.h.s.HorizonMS && !t.byeSent:
		// Wind-down: the session-wide bye closes everything still open,
		// abandoning whatever call is in flight.
		t.byeSent = true
		t.call(now, svc.Op{Kind: proto.KindBye})
	case t.busy:
		if !now.Before(t.deadline) {
			t.apply(t.s.Expire(now))
		}
	case t.calls == 0:
		t.call(now, svc.Op{Kind: proto.KindHello})
	case !t.byeSent:
		t.plan(now)
	}
}

// plan draws the next scripted intent: tenants churn for the WHOLE
// horizon, so a kill anywhere in it always lands on live traffic.
func (t *svcTenant) plan(now time.Time) {
	// Pace: act roughly every four idle milliseconds.
	if t.rng.Float64() < 0.75 {
		return
	}
	open := t.s.Circuits()
	switch {
	case len(open) > 0 && t.rng.Float64() < 0.45:
		t.call(now, svc.Op{Kind: proto.KindVCClose, VC: open[t.rng.Intn(len(open))]})
		return
	case len(open) > 0 && t.rng.Float64() < 0.3:
		// Fire-and-forget traffic on a held circuit.
		wire, err := t.s.Traffic(now, open[t.rng.Intn(len(open))], 1+t.rng.Intn(4))
		if err != nil {
			panic(err) // session-built frames cannot fail to encode
		}
		t.h.inject(t.node, svcServerNode, wire, true)
		return
	}
	hosts := t.h.hosts
	src := hosts[t.rng.Intn(len(hosts))]
	dst := hosts[t.rng.Intn(len(hosts))]
	for dst == src {
		dst = hosts[t.rng.Intn(len(hosts))]
	}
	rate := 0
	if t.rng.Float64() < 0.3 {
		rate = 1 + t.rng.Intn(2)
	}
	t.call(now, svc.Op{Kind: proto.KindVCRequest, Src: src, Dst: dst, Rate: rate})
}

// call starts op under a deterministic trace id, tenant<<32 | call
// sequence, so the server's flight recorder attributes every span to a
// scripted call with no merge step.
func (t *svcTenant) call(now time.Time, op svc.Op) {
	t.calls++
	t.busy, t.op = true, op.Kind
	t.apply(t.s.Call(now, op, t.id<<32|t.calls))
}

// onDelivery feeds the session one server frame; a non-nil Violation
// aborts the run (double-grant is checked here, where grants are
// observed).
func (t *svcTenant) onDelivery(d ctrlnet.Delivery) *Violation {
	if t.vanished || t.done {
		return nil
	}
	st := t.s.Reply(t.h.clock(), d.Wire)
	if !t.busy {
		return nil // counted by the session as an orphan, or not ours
	}
	if a := st.Answer; a != nil && a.Kind == proto.KindVCReply && a.Accept {
		key, got := [2]uint64{t.id, a.Initiator}, cell.VCI(a.Depth)
		if prev, ok := t.h.grants[key]; ok && prev != got {
			return &Violation{Slot: t.h.nowMS, Invariant: "double-grant",
				Detail: fmt.Sprintf("tenant %d nonce %d granted VCI %d then %d", t.id, a.Initiator, prev, got)}
		}
		t.h.grants[key] = got
	}
	t.apply(st)
	return nil
}

// apply carries out one session step: its frame goes through the fault
// engine, and a finished call frees the tenant to plan the next one.
func (t *svcTenant) apply(st svc.Step) {
	if st.Send != nil {
		t.h.inject(t.node, svcServerNode, st.Send, true)
	}
	t.deadline = st.Deadline
	if st.Done {
		// A failed call's server-side effects, if any, are cleaned by bye
		// or lease GC: that is the point.
		t.busy = false
		switch {
		case st.Err != nil:
		case t.op == proto.KindVCRequest:
			t.grants++
		case t.op == proto.KindBye:
			t.done = true
		}
	}
}
