package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cell"
	"repro/internal/ctrlnet"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/svc"
	"repro/internal/svcsys"
	"repro/internal/topology"
)

// This file is the service-mode workload: a fleet of tenant sessions
// hammering one VC service, the way hosts on the paper's LAN hammer
// bandwidth central with circuit requests. Each tenant churns flows — open
// a circuit (guaranteed or best-effort), maybe push traffic, close it —
// while the harness measures what a service operator would: admissions,
// refusals, and whether one greedy tenant can degrade the others (it must
// not: quotas confine it). RunTenants drives the fleet over loopback UDP
// on the wall clock, which adds set-up rate and latency; DriveTenants
// drives the same fleet on the composed service's virtual clock.

// TenantsConfig configures one workload run.
type TenantsConfig struct {
	// ServerAddr is the server's UDP listen address; the server's
	// transport node id is 0.
	ServerAddr string
	// Tenants is the number of concurrent tenant sessions (default 64).
	// Tenant ids are 1..Tenants; tenant 1 is the aggressor.
	Tenants int
	// Flows is the total flow target across all tenants (default 100_000).
	// A flow is one open (+ optional traffic) + close cycle.
	Flows int
	// Seed drives each tenant's flow mix; Timeout/Retries tune the RPC
	// layer (defaults 2s / 5 — generous because the server is
	// single-threaded and a race-instrumented CI machine is slow).
	Seed    int64
	Timeout time.Duration
	Retries int

	// DropProb, when > 0, wraps each tenant's UDP endpoint in
	// ctrlnet.Faulty with this drop probability, so every request (and
	// traffic frame) risks the floor. Reply-direction loss is the server
	// operator's to configure — wrap the server transport the same way.
	DropProb float64
	// RetryCap bounds the client's exponential backoff.
	RetryCap time.Duration
	// Survivable tolerates transient RPC failure — retry exhaustion or a
	// failed re-attach while the server is down — by retrying the flow
	// instead of failing the tenant, up to a fixed per-tenant budget.
	// Required for any run that kills and restarts the server mid-churn.
	Survivable bool

	// Spans, if set, receives every tenant client's service spans (one
	// shared writer — obs.SpanWriter is concurrency-safe). Ring is the
	// shared client-side flight recorder; both nil leaves tracing off and
	// the RPC hot path untouched.
	Spans *obs.SpanWriter
	Ring  *obs.Ring
}

const (
	// The flow mix. A fifth of the flows ask for a guaranteed rate: 1
	// cell/frame from a light tenant, aggressorRate from the aggressor —
	// far over any fair share, so it slams into its quota while the light
	// tenants are admitted. Every trafficEvery-th admitted flow pushes
	// trafficCells cells before it closes.
	guaranteedFrac = 0.2
	aggressorRate  = 8
	trafficEvery   = 4
	trafficCells   = 8

	// Over UDP the server is transport node serverNode, tenant i baseNode+i.
	serverNode = topology.NodeID(0)
	baseNode   = topology.NodeID(1000)

	// survivalBudget bounds how many transient flow failures one tenant
	// absorbs before giving up: enough to ride out a restart, small enough
	// that a permanently dead server still fails the run.
	survivalBudget = 64
)

// TenantsReport is what the run measured.
type TenantsReport struct {
	Tenants int
	Flows   int64 // completed open attempts (admitted + refused)

	AdmittedBE  int64
	AdmittedGtd int64
	Refused     int64
	// RefusedBy counts refusals by server reason code.
	RefusedBy map[int32]int64

	// Setup summarizes admission latency: µs from sending vc-request to
	// holding the reply, over every flow (admitted or refused — a refusal
	// is also an answer). SetupPerSec is Flows over the run's wall time —
	// the service's sustained VC setup rate.
	Setup       metrics.Summary
	SetupPerSec float64

	// FairnessX1000 is Jain's index over the LIGHT tenants' admitted
	// counts (the aggressor excluded: its refusals are the point).
	FairnessX1000 int
	// AggressorGtdAdmitRate and LightGtdAdmitRate are guaranteed-class
	// admission rates (admitted / requested) for the aggressor vs the
	// rest — the isolation headline: light tenants keep admitting while
	// the aggressor is pinned at its quota.
	AggressorGtdAdmitRate float64
	LightGtdAdmitRate     float64

	TrafficCells int64

	// ClientStats sums the sessions' resilience accounting; its last
	// re-attach is the fleet's latest (measured against the kill instant,
	// it bounds the unavailability window). ReattachedTenants counts the
	// tenants that completed one, and ReattachUS summarizes each one's
	// last re-attach duration in µs.
	svc.ClientStats
	ReattachedTenants int
	ReattachUS        metrics.Summary
}

func (c TenantsConfig) withDefaults() TenantsConfig {
	if c.Tenants <= 0 {
		c.Tenants = 64
	}
	if c.Flows <= 0 {
		c.Flows = 100_000
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Retries <= 0 {
		c.Retries = 5
	}
	return c
}

// tenant is one tenant's workload as a machine that RunTenants and
// DriveTenants both run: next names the call to make, and done books its
// outcome. It owns the tenant's flow draw — endpoints and rate from its
// own seeded stream, a fifth of the flows guaranteed — and its private
// tally, merged after the run (metrics.Histogram is not thread-safe, so
// each worker owns one).
type tenant struct {
	i      int
	client svc.ClientConfig  // the session's configuration
	rng    *rand.Rand        // the flow draw
	hosts  []topology.NodeID // the roster, once hello returns it
	budget int               // transient failures still to absorb

	flows, flow int      // this tenant's share, and the next flow's index
	op          svc.Op   // the call in flight (Kind 0: none)
	vc          cell.VCI // the admitted circuit to close next (0: none)
	push        bool     // push traffic on vc before closing it
	bye         bool     // the session is over

	admittedBE, admittedGtd, refused, gtdRequested, traffic int64
	refusedBy                                               map[int32]int64
	setupUS                                                 metrics.Histogram
	stats                                                   svc.ClientStats
	err                                                     error
}

// newTenants builds the fleet. Each share of the flows is rounded up, so
// the run never lands under the requested total (the E32 acceptance floor
// is a hard >= 1e5).
func newTenants(cfg TenantsConfig) []*tenant {
	ts := make([]*tenant, cfg.Tenants)
	for i := range ts {
		ts[i] = &tenant{i: i, rng: rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
			flows: (cfg.Flows + cfg.Tenants - 1) / cfg.Tenants, refusedBy: make(map[int32]int64),
			client: svc.ClientConfig{Tenant: uint64(i + 1), Timeout: cfg.Timeout, Retries: cfg.Retries,
				RetryCap: cfg.RetryCap, Seed: cfg.Seed + int64(i)*6151 + 1}}
		if cfg.Survivable {
			ts[i].budget = survivalBudget
		}
	}
	return ts
}

// next returns the call to make next, or false once the tenant is done. A
// KindTraffic op pushes trafficCells cells on op.VC, fire-and-forget.
func (t *tenant) next() (svc.Op, bool) {
	switch {
	case t.err != nil || t.bye:
		return svc.Op{}, false
	case t.hosts == nil:
		t.op = svc.Op{Kind: proto.KindHello}
	case t.push:
		t.op = svc.Op{Kind: proto.KindTraffic, VC: t.vc}
	case t.vc != 0:
		t.op = svc.Op{Kind: proto.KindVCClose, VC: t.vc}
	case t.flow < t.flows:
		src := t.hosts[t.rng.Intn(len(t.hosts))]
		dst := t.hosts[t.rng.Intn(len(t.hosts))]
		for dst == src {
			dst = t.hosts[t.rng.Intn(len(t.hosts))]
		}
		rate := 0
		if t.rng.Float64() < guaranteedFrac {
			rate = 1
			if t.i == 0 {
				rate = aggressorRate
			}
		}
		t.op = svc.Op{Kind: proto.KindVCRequest, Src: src, Dst: dst, Rate: rate}
	default:
		t.op = svc.Op{Kind: proto.KindBye}
	}
	return t.op, true
}

// done books the outcome of the call next named: the roster a hello
// returned, the circuit an open was granted, the call's latency in µs and
// its error. While the survival budget lasts, a failure other than a
// refusal can mean "the server is restarting" and is absorbed: a hello is
// retried, an open's flow slot is redrawn, and a traffic push, close or
// bye is skipped (bye, or failing that lease expiry, closes what the
// session still holds). Any other failure ends the tenant. Only definitive
// outcomes count as flows and latency samples: a retried outage attempt
// is unavailability, not admission.
func (t *tenant) done(hosts []topology.NodeID, vc cell.VCI, us int64, err error) {
	op := t.op
	t.op = svc.Op{}
	var ref *svc.Refused
	refused := errors.As(err, &ref)
	if err != nil && !refused && t.budget > 0 {
		t.budget--
		t.push = false
		if op.Kind == proto.KindVCClose {
			t.vc = 0
		}
		t.bye = op.Kind == proto.KindBye
		return
	}
	switch op.Kind {
	case proto.KindHello:
		if err == nil && len(hosts) < 2 {
			err = fmt.Errorf("roster has %d hosts", len(hosts))
		}
		t.hosts = hosts
	case proto.KindVCRequest:
		if err != nil && !refused {
			break
		}
		t.setupUS.Observe(us)
		if op.Rate > 0 {
			t.gtdRequested++
		}
		switch {
		case refused:
			t.refused++
			t.refusedBy[ref.Code]++
		case op.Rate > 0:
			t.admittedGtd++
		default:
			t.admittedBE++
		}
		if !refused {
			t.vc, t.push = vc, t.flow%trafficEvery == 0
		}
		t.flow++
		err = nil
	case proto.KindTraffic:
		t.push = false
		if err == nil {
			t.traffic += trafficCells
		}
	case proto.KindVCClose:
		// A retried close may land after the nonce cache slid past it: the
		// server then answers unknown-vc for a VC that IS closed.
		t.vc = 0
		if refused && ref.Code == svc.RefuseUnknownVC {
			err = nil
		}
	case proto.KindBye:
		t.bye = true
	}
	if err != nil {
		t.err = fmt.Errorf("%v (flow %d): %w", op.Kind, t.flow, err)
	}
}

// report aggregates the tenants' tallies; elapsed is the run's wall time
// (0: not measured).
func report(ts []*tenant, elapsed time.Duration) (*TenantsReport, error) {
	rep := &TenantsReport{Tenants: len(ts), RefusedBy: make(map[int32]int64)}
	var setup, reattachUS metrics.Histogram
	var light []int64
	var lightReq, lightAdm int64
	for i, t := range ts {
		if t.err != nil {
			return nil, fmt.Errorf("workload: tenant %d: %w", i+1, t.err)
		}
		cs := t.stats
		rep.Retransmits += cs.Retransmits
		rep.Reattaches += cs.Reattaches
		rep.ReattachVCs += cs.ReattachVCs
		rep.ReattachFailedVCs += cs.ReattachFailedVCs
		rep.OrphanReplies += cs.OrphanReplies
		if cs.Reattaches > 0 {
			rep.ReattachedTenants++
			reattachUS.Observe(cs.LastReattachDur.Microseconds())
			if cs.LastReattachAt.After(rep.LastReattachAt) {
				rep.LastReattachAt, rep.LastReattachDur = cs.LastReattachAt, cs.LastReattachDur
			}
		}
		rep.Flows += t.admittedBE + t.admittedGtd + t.refused
		rep.AdmittedBE += t.admittedBE
		rep.AdmittedGtd += t.admittedGtd
		rep.Refused += t.refused
		for code, n := range t.refusedBy {
			rep.RefusedBy[code] += n
		}
		rep.TrafficCells += t.traffic
		setup.Merge(&t.setupUS)
		if i > 0 {
			lightReq += t.gtdRequested
			lightAdm += t.admittedGtd
			light = append(light, t.admittedBE+t.admittedGtd)
		}
	}
	rep.Setup, rep.ReattachUS = setup.Summarize(), reattachUS.Summarize()
	rep.FairnessX1000 = svc.JainX1000(light)
	rep.AggressorGtdAdmitRate = ratio(ts[0].admittedGtd, ts[0].gtdRequested)
	rep.LightGtdAdmitRate = ratio(lightAdm, lightReq)
	if elapsed > 0 {
		rep.SetupPerSec = float64(rep.Flows) / elapsed.Seconds()
	}
	return rep, nil
}

// ratio is n/of, or 0 when of is 0.
func ratio(n, of int64) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

// RunTenants runs the workload to completion against a live server over
// loopback UDP, one goroutine per tenant, and aggregates the report.
func RunTenants(cfg TenantsConfig) (*TenantsReport, error) {
	cfg = cfg.withDefaults()
	if cfg.ServerAddr == "" {
		return nil, errors.New("workload: no server address")
	}
	ts := newTenants(cfg)
	var wg sync.WaitGroup
	start := time.Now()
	for _, t := range ts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := runTenant(cfg, t); err != nil {
				t.err = err
			}
		}()
	}
	wg.Wait()
	return report(ts, time.Since(start))
}

// runTenant drives one tenant over its own socket and client, on the wall
// clock.
func runTenant(cfg TenantsConfig, t *tenant) error {
	self := baseNode + topology.NodeID(t.i)
	udp, err := ctrlnet.NewUDP(ctrlnet.UDPConfig{
		Local: map[topology.NodeID]string{self: "127.0.0.1:0"},
		Peers: map[topology.NodeID]string{serverNode: cfg.ServerAddr},
	})
	if err != nil {
		return err
	}
	var tr ctrlnet.Transport = udp
	if cfg.DropProb > 0 {
		f, ferr := ctrlnet.Faulty(udp, ctrlnet.Config{
			DropProb: cfg.DropProb,
			Seed:     cfg.Seed + int64(t.i)*104729 + 1,
		})
		if ferr != nil {
			udp.Close()
			return ferr
		}
		tr = f
	}
	defer tr.Close()
	ccfg := t.client
	ccfg.Transport, ccfg.Self, ccfg.Server = tr, self, serverNode
	ccfg.Spans, ccfg.Ring = cfg.Spans, cfg.Ring
	ccfg.SpanSeed = uint64(cfg.Seed) + uint64(t.i)*0x9E37 + 1
	cl, err := svc.NewClient(ccfg)
	if err != nil {
		return err
	}
	defer cl.Close()
	for op, ok := t.next(); ok; op, ok = t.next() {
		var hosts []topology.NodeID
		var vc cell.VCI
		t0 := time.Now()
		switch op.Kind {
		case proto.KindHello:
			hosts, err = cl.Hello()
		case proto.KindVCRequest:
			vc, err = cl.Open(op.Src, op.Dst, op.Rate)
		case proto.KindTraffic:
			err = cl.Traffic(op.VC, trafficCells)
		case proto.KindVCClose:
			err = cl.CloseVC(op.VC)
		case proto.KindBye:
			err = cl.Bye()
		}
		t.done(hosts, vc, time.Since(t0).Microseconds(), err)
	}
	t.stats = cl.Stats()
	return nil
}

// DriveTenants runs the same workload on sys, the composed service on its
// virtual clock: cfg.Tenants sessions join sys and churn their flows tick
// by tick, with no socket, goroutine or wall clock, so a run replays to
// the byte. The tenants and the report are RunTenants'; the report's
// SetupPerSec stays zero and Setup is in virtual µs.
// ServerAddr, DropProb, Spans and Ring do not apply: faults are sys's.
func DriveTenants(sys *svcsys.System, cfg TenantsConfig) (*TenantsReport, error) {
	cfg = cfg.withDefaults()
	ts := newTenants(cfg)
	sessions := make([]*svc.Session, len(ts))
	for i, t := range ts {
		sessions[i] = svc.NewSession(t.client, rand.New(rand.NewSource(t.client.Seed)))
		sys.Join(sessions[i])
	}
	sentMS := make([]int64, len(ts))
	step := func(i int, st svc.Step) bool {
		if st.Done {
			ans := svc.Decode(st.Answer)
			ts[i].done(ans.Hosts, ans.VC, (sys.NowMS()-sentMS[i])*1000, st.Err)
		}
		return true
	}
	left := len(ts)
	act := func(i int) {
		if ts[i].op.Kind != 0 {
			return // the system retransmits and times the call out
		}
		op, ok := ts[i].next()
		for ok && op.Kind == proto.KindTraffic {
			ts[i].done(nil, 0, 0, sys.Traffic(i, op.VC, trafficCells))
			op, ok = ts[i].next()
		}
		if !ok {
			ts[i].stats = sessions[i].Stats()
			sys.Leave(i)
			left--
			return
		}
		sentMS[i] = sys.NowMS()
		sys.Call(i, op, 0)
	}
	for left > 0 {
		sys.Tick(step, act)
	}
	return report(ts, 0)
}
