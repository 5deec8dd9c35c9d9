package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/ctrlnet"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/svc"
	"repro/internal/svcsys"
	"repro/internal/topology"
)

// This file extends the chaos harness one layer up: from the recovery
// stack to the multi-tenant VC SERVICE built on it. An SvcSchedule
// scripts tenants churning sessions over a faulty control channel while
// the server process is killed and restarted mid-run. The run is the
// composed service, svcsys.System, on its virtual millisecond clock: the
// server and every tenant (the shipped client machine, svc.Session) read
// that clock, and every datagram crosses its one seeded fault engine. This
// file adds only the schedule, the tenants' intents and the invariants, so
// a schedule replays bit-for-bit and SvcShrink can reduce a failure the
// same way Shrink reduces a recovery failure.
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

// withDefaults fills the zero fields: 8 tenants, 400 ms leases and orphan
// grace, a 3000 ms horizon and a 600 ms wind-down.
func (s SvcSchedule) withDefaults() SvcSchedule {
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
	return s
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

// A generated schedule has the default 8 tenants and 400 ms leases, up to
// 2 tenants vanishing, 1–2 server kills, an even chance of an extra
// control brownout, and baseline control loss of 10% with 5% duplication
// and 5% reordering.
const (
	svcGenMaxVanish   = 2
	svcGenMinKills    = 1
	svcGenMaxKills    = 2
	svcGenBurstProb   = 0.5
	svcGenDropProb    = 0.10
	svcGenDupProb     = 0.05
	svcGenReorderProb = 0.05
)

// GenerateSvc builds a random service schedule from the seed: 1–2 server
// kills and possibly a control-loss burst, every outage over before the
// wind-down so the end-state invariants are fair.
func GenerateSvc(seed int64) SvcSchedule {
	rng := rand.New(rand.NewSource(seed ^ 0x51CE995))
	s := SvcSchedule{
		Seed:   seed,
		Vanish: rng.Intn(svcGenMaxVanish + 1),
		Faults: ctrlnet.Config{DropProb: svcGenDropProb, DupProb: svcGenDupProb, ReorderProb: svcGenReorderProb},
	}.withDefaults()
	// An outage starts in [300, horizon-600] ms, lasts 100 ms plus up to
	// spread, and ends by horizon-200 ms.
	outage := func(kill bool, spread int64) SvcOutage {
		start := 300 + rng.Int63n(s.HorizonMS-900+1)
		end := min(start+100+rng.Int63n(spread), s.HorizonMS-200)
		return SvcOutage{Kill: kill, StartMS: start, EndMS: end}
	}
	for kills := svcGenMinKills + rng.Intn(svcGenMaxKills-svcGenMinKills+1); kills > 0; kills-- {
		s.Outages = append(s.Outages, outage(true, 200))
	}
	if rng.Float64() < svcGenBurstProb {
		s.Outages = append(s.Outages, outage(false, 150))
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

// RunSvc executes the schedule on the composed service and checks every
// invariant. A non-nil error is a harness failure; findings come back in
// SvcResult.Violation.
func RunSvc(s SvcSchedule) (*SvcResult, error) {
	s = s.withDefaults()
	lan, err := core.New(core.Config{Topology: fixtureGraph(), FrameSlots: 64, Seed: s.Seed})
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
	lease := time.Duration(s.LeaseDurMS) * time.Millisecond
	grace := time.Duration(s.OrphanGraceMS) * time.Millisecond
	if s.UnsafeNoLeaseGC {
		// The regression arm: leases never expire, orphans are never
		// reclaimed — whatever is leaked stays leaked.
		lease = 1000 * time.Hour
		grace = 1000 * time.Hour
	}
	ring := obs.NewRing(2048) // shared across incarnations: the flight recorder
	sys, err := svcsys.New(svc.Config{
		LAN:                    lan,
		MaxVCsPerTenant:        4,
		MaxGuaranteedPerTenant: 4,
		Incarnation:            1,
		LeaseDur:               lease,
		OrphanGrace:            grace,
		Ring:                   ring,
		SpanSeed:               uint64(s.Seed)*0x9E3779B9 + 1,
	}, faults)
	if err != nil {
		return nil, err
	}
	var res SvcResult
	grants := make(map[[2]uint64]cell.VCI)
	tenants := make([]*svcTenant, s.Tenants)
	for i := range tenants {
		t := &svcTenant{sys: sys, i: i, id: uint64(i + 1), rng: rand.New(rand.NewSource(s.Seed + int64(i)*7919)),
			hosts: lan.Topology().Hosts(), horizonMS: s.HorizonMS, granted: grants}
		t.s = svc.NewSession(svc.ClientConfig{Tenant: t.id, Timeout: 40 * time.Millisecond, Retries: 10},
			rand.New(rand.NewSource(t.rng.Int63())))
		if i < s.Vanish {
			// Vanishing tenants stop cold somewhere in the middle third.
			t.vanishAtMS = s.HorizonMS/3 + t.rng.Int63n(s.HorizonMS/3)
		}
		sys.Join(t.s)
		tenants[i] = t
	}
	finish := func() *SvcResult {
		res.FinalStats = sys.Server().Stats()
		for _, tn := range tenants {
			st := tn.s.Stats()
			res.Grants += tn.grants + st.ReattachVCs
			res.Reattaches += st.Reattaches
			if tn.done {
				res.Byes++
			}
		}
		res.Recorder = ring.Snapshot()
		return &res
	}
	step := func(i int, st svc.Step) bool {
		res.Violation = tenants[i].onStep(st)
		return res.Violation == nil
	}
	act := func(i int) { tenants[i].step() }

	total := s.HorizonMS + s.GraceMS
	for sys.NowMS() <= total {
		now := sys.NowMS()
		// Server process lifecycle.
		for _, o := range s.Outages {
			if o.Kill && now == o.StartMS && sys.Alive() {
				sys.Kill()
			}
			if o.Kill && now == o.EndMS && !sys.Alive() {
				if err := sys.Restart(); err != nil {
					return nil, err
				}
				res.Restarts++
			}
		}
		if !sys.Tick(step, act) {
			return finish(), nil
		}
		if sys.Alive() {
			if err := sys.Server().CheckInvariant(); err != nil {
				res.Violation = &Violation{Slot: now, Invariant: "svc-books", Detail: err.Error()}
				return finish(), nil
			}
		}
		if !lan.Snapshot().Conserved() {
			res.Violation = &Violation{Slot: now, Invariant: "conservation",
				Detail: fmt.Sprintf("cell accounting broken: %+v", lan.Snapshot())}
			return finish(), nil
		}
	}

	// End state: anything still in flight dies with the run, then the
	// clock jumps past lease expiry and the orphan grace so every leaked
	// session and adopted orphan must have been collected.
	end := total + s.LeaseDurMS + s.OrphanGraceMS + 100
	sys.Settle(end)
	if n := len(lan.Circuits()); n != 0 {
		res.Violation = &Violation{Slot: end, Invariant: "no-orphan-vc",
			Detail: fmt.Sprintf("%d circuits survive every bye, lease expiry, and the orphan grace", n)}
	} else if sys.Alive() && !sys.Server().Quiesced() {
		res.Violation = &Violation{Slot: end, Invariant: "no-orphan-vc",
			Detail: "server not quiesced after lease expiry"}
	} else if !lan.Snapshot().Conserved() {
		res.Violation = &Violation{Slot: end, Invariant: "conservation",
			Detail: fmt.Sprintf("end-state cell accounting broken: %+v", lan.Snapshot())}
	}
	return finish(), nil
}

// ---- tenants ------------------------------------------------------------

// svcTenant is one scripted tenant: an intent planner driving the shipped
// client machine, svc.Session, through the composed system. The planner
// decides what the tenant does and when; everything it says on the wire
// (nonces, retransmission and backoff, re-attach, ledger replay, aliasing)
// is the session's, and the system carries it.
type svcTenant struct {
	sys       *svcsys.System
	i         int
	id        uint64 // i+1
	rng       *rand.Rand
	s         *svc.Session
	hosts     []topology.NodeID
	horizonMS int64
	granted   map[[2]uint64]cell.VCI // (tenant, nonce) -> VCI, fleet-wide: the double-grant check

	calls uint64 // calls started: the low half of each call's trace id
	busy  bool   // a call is in flight
	op    proto.Kind

	vanishAtMS int64 // 0: never vanishes
	byeSent    bool
	done       bool // bye acknowledged (or refused-stale: same thing)

	grants int64 // fresh opens granted (reopens are in the session's stats)
}

// step is one virtual millisecond of tenant life.
func (t *svcTenant) step() {
	if t.vanishAtMS > 0 && t.sys.NowMS() >= t.vanishAtMS {
		t.sys.Leave(t.i) // stops cold: no bye, no further frame
		return
	}
	switch {
	case t.sys.NowMS() >= t.horizonMS && !t.byeSent:
		// Wind-down: the session-wide bye closes everything still open,
		// abandoning whatever call is in flight.
		t.byeSent = true
		t.call(svc.Op{Kind: proto.KindBye})
	case t.busy: // the system retransmits and times the call out
	case t.calls == 0:
		t.call(svc.Op{Kind: proto.KindHello})
	case !t.byeSent:
		t.plan()
	}
}

// plan draws the next scripted intent: tenants churn for the WHOLE
// horizon, so a kill anywhere in it always lands on live traffic.
func (t *svcTenant) plan() {
	// Pace: act roughly every four idle milliseconds.
	if t.rng.Float64() < 0.75 {
		return
	}
	open := t.s.Circuits()
	switch {
	case len(open) > 0 && t.rng.Float64() < 0.45:
		t.call(svc.Op{Kind: proto.KindVCClose, VC: open[t.rng.Intn(len(open))]})
		return
	case len(open) > 0 && t.rng.Float64() < 0.3:
		// Fire-and-forget traffic on a held circuit.
		if err := t.sys.Traffic(t.i, open[t.rng.Intn(len(open))], 1+t.rng.Intn(4)); err != nil {
			panic(err) // session-built frames cannot fail to encode
		}
		return
	}
	hosts := t.hosts
	src := hosts[t.rng.Intn(len(hosts))]
	dst := hosts[t.rng.Intn(len(hosts))]
	for dst == src {
		dst = hosts[t.rng.Intn(len(hosts))]
	}
	rate := 0
	if t.rng.Float64() < 0.3 {
		rate = 1 + t.rng.Intn(2)
	}
	t.call(svc.Op{Kind: proto.KindVCRequest, Src: src, Dst: dst, Rate: rate})
}

// call starts op under a deterministic trace id, tenant<<32 | call
// sequence, so the server's flight recorder attributes every span to a
// scripted call with no merge step.
func (t *svcTenant) call(op svc.Op) {
	t.calls++
	t.busy, t.op = true, op.Kind
	t.sys.Call(t.i, op, t.id<<32|t.calls)
}

// onStep takes the step a delivery or an expiry produced (the system
// already sent its frame). A non-nil Violation aborts the run: grants are
// observed here, so double-grant is checked here. A finished call frees
// the tenant to plan the next one; a failed call's server-side effects,
// if any, are cleaned by bye or lease GC: that is the point.
func (t *svcTenant) onStep(st svc.Step) *Violation {
	if a := st.Answer; a != nil && a.Kind == proto.KindVCReply && a.Accept {
		key, got := [2]uint64{t.id, a.Initiator}, cell.VCI(a.Depth)
		if prev, ok := t.granted[key]; ok && prev != got {
			return &Violation{Slot: t.sys.NowMS(), Invariant: "double-grant",
				Detail: fmt.Sprintf("tenant %d nonce %d granted VCI %d then %d", t.id, a.Initiator, prev, got)}
		}
		t.granted[key] = got
	}
	if !st.Done {
		return nil
	}
	t.busy = false
	switch {
	case st.Err != nil:
	case t.op == proto.KindVCRequest:
		t.grants++
	case t.op == proto.KindBye:
		t.done = true
		t.sys.Leave(t.i)
	}
	return nil
}
