package exp

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ctrlnet"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/svc"
	"repro/internal/topology"
	"repro/internal/workload"
)

// E33: survivable service mode. E32 showed the control plane serving a
// building's worth of tenants; this experiment crashes it mid-building.
// 64 tenants churn flows over lossy loopback UDP (10% drop each
// direction) while the server is killed outright — transport closed,
// state gone except what the LAN itself holds — and restarted on the
// same port with a new incarnation. Measured: the unavailability window
// (kill → last tenant re-attached), re-attach latency, whether orphaned
// circuits inherited from the dead incarnation reach zero after lease
// expiry, and — the companion claim — that capped-exponential backoff
// with full jitter flattens the retransmit thundering herd that fixed
// pacing aims at a dead server.
//
// Wall-clock numbers (sockets, goroutines, timers), so the package's
// tests assert the invariants on each run's tables (the E33 headline in
// exp_test.go): every live tenant re-attached, orphan VCs 0, the trace
// window within 10% of ground truth.

func init() {
	register(&Experiment{
		ID:    "E33",
		Title: "Survivable service: kill+restart mid-churn under 10% UDP loss, backoff vs thundering herd",
		Claim: "after a mid-churn server crash and same-port restart, every live tenant transparently re-attaches (re-registers and re-opens its circuits from its own ledger), circuits orphaned by the crash are garbage-collected to zero once leases expire, and full-jitter exponential backoff yields a measurably lower peak retransmit rate against a dead server than fixed-interval pacing",
		Run:   runE33,
		Quick: false,
	})
}

// e33Flows keeps the crash run long enough that the kill lands mid-churn
// with hundreds of flows still owed by every tenant. A variable only so
// the package's -short test run can shrink it; nothing else writes it.
var e33Flows = 24_000

func runE33(seed int64) ([]*metrics.Table, error) {
	g, err := topology.Torus(4, 4, 10)
	if err != nil {
		return nil, err
	}
	if err := topology.AttachHosts(g, 3, 1); err != nil {
		return nil, err
	}
	lan, err := core.New(core.Config{Topology: g, FrameSlots: 128, Seed: seed})
	if err != nil {
		return nil, err
	}

	const (
		lossProb    = 0.10
		leaseDur    = time.Second
		orphanGrace = 750 * time.Millisecond
		outage      = 250 * time.Millisecond
	)
	reg := obs.NewRegistry(1)
	// Both processes' span streams, captured in memory exactly as
	// -trace-spans would write them to disk: one client stream for the
	// whole tenant fleet, one server stream shared by both incarnations.
	// After the run, obs.MergeTraces must reproduce the unavailability
	// window from these streams ALONE — the cross-process tracing claim.
	var clientBuf, serverBuf bytes.Buffer
	clientSpans := obs.NewSpanWriter(&clientBuf)
	serverSpans := obs.NewSpanWriter(&serverBuf)
	newServer := func(addr string, incarnation int32, faultSeed int64) (*svc.Server, *ctrlnet.FaultyTransport, string, error) {
		udp, err := ctrlnet.NewUDP(ctrlnet.UDPConfig{
			Local: map[topology.NodeID]string{0: addr},
		})
		if err != nil {
			return nil, nil, "", err
		}
		bound := udp.Addr(0).String()
		tr, err := ctrlnet.Faulty(udp, ctrlnet.Config{DropProb: lossProb, Seed: faultSeed})
		if err != nil {
			udp.Close()
			return nil, nil, "", err
		}
		srv, err := svc.NewServer(svc.Config{
			LAN: lan, Transport: tr, Node: 0,
			MaxVCsPerTenant:        8,
			MaxGuaranteedPerTenant: 4,
			Tick:                   time.Millisecond,
			Incarnation:            incarnation,
			LeaseDur:               leaseDur,
			OrphanGrace:            orphanGrace,
			Obs:                    reg,
			Spans:                  serverSpans,
			SpanSeed:               uint64(seed) + uint64(incarnation),
		})
		if err != nil {
			tr.Close()
			return nil, nil, "", err
		}
		return srv, tr, bound, nil
	}

	srv1, _, addr, err := newServer("127.0.0.1:0", 1, seed+1)
	if err != nil {
		return nil, err
	}
	serve1 := make(chan error, 1)
	go func() { serve1 <- srv1.Serve() }()

	wlDone := make(chan struct{})
	var rep *workload.TenantsReport
	var wlErr error
	go func() {
		defer close(wlDone)
		rep, wlErr = workload.RunTenants(workload.TenantsConfig{
			ServerAddr:    addr,
			Tenants:       64,
			Flows:         e33Flows,
			AggressorRate: 8,
			Seed:          seed,
			Timeout:       40 * time.Millisecond,
			RetryCap:      500 * time.Millisecond,
			Retries:       8,
			DropProb:      lossProb,
			Survivable:    true,
			Spans:         clientSpans,
		})
	}()

	// Kill once roughly a third of the flow budget has been admitted or
	// refused: obs counters are sharded atomics, safe to poll mid-serve.
	reqBE := reg.Counter("svc_requests_total", "class", "best-effort")
	reqGtd := reg.Counter("svc_requests_total", "class", "guaranteed")
	killFloor := int64(e33Flows / 3)
	for reqBE.Value()+reqGtd.Value() < killFloor {
		select {
		case <-wlDone:
			if wlErr != nil {
				srv1.Stop()
				return nil, fmt.Errorf("workload died before the kill: %w", wlErr)
			}
			srv1.Stop()
			return nil, errors.New("e33: workload finished before the kill threshold")
		case <-time.After(2 * time.Millisecond):
		}
	}
	killAt := time.Now()
	srv1.Stop() // closes the transport: the port is free for the restart
	if err := <-serve1; err != nil {
		return nil, err
	}
	st1 := srv1.Stats()

	time.Sleep(outage)

	// Rebind the SAME port: tenants hold it as their peer address. The
	// new incarnation finds the dead server's circuits still programmed
	// in the LAN and adopts them as orphans on a grace deadline.
	var srv2 *svc.Server
	var tr2 *ctrlnet.FaultyTransport
	for try := 0; ; try++ {
		srv2, tr2, _, err = newServer(addr, 2, seed+2)
		if err == nil {
			break
		}
		if try >= 20 {
			return nil, fmt.Errorf("rebind %s: %w", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	defer tr2.Close()
	orphansAdopted := srv2.OrphanVCs()
	serve2 := make(chan error, 1)
	go func() { serve2 <- srv2.Serve() }()

	<-wlDone
	if wlErr != nil {
		srv2.Stop()
		return nil, wlErr
	}

	// Every tenant said bye (or its lease expired): wait for the server
	// to quiesce — zero sessions, zero circuits, zero orphans — which is
	// exactly the "orphan VCs reach 0 after lease expiry" claim.
	deadline := time.Now().Add(15 * time.Second)
	for !srv2.Quiesced() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	orphansAfter := srv2.OrphanVCs()
	quiesced := srv2.Quiesced()
	srv2.Stop()
	if err := <-serve2; err != nil {
		return nil, err
	}
	st2 := srv2.Stats()
	ReportSlots(st1.Steps + st2.Steps)

	unavailMS := int64(-1)
	if rep.ReattachedTenants > 0 {
		unavailMS = rep.LastReattachAt.Sub(killAt).Milliseconds()
	}

	// The tracing acceptance: merge the two span streams and reproduce the
	// unavailability window with no access to killAt or the workload's
	// clocks — only what the traces carry.
	if err := clientSpans.Flush(); err != nil {
		return nil, err
	}
	if err := serverSpans.Flush(); err != nil {
		return nil, err
	}
	clientEvents, err := obs.ReadJSONL(bytes.NewReader(clientBuf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("client span stream: %w", err)
	}
	serverEvents, err := obs.ReadJSONL(bytes.NewReader(serverBuf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("server span stream: %w", err)
	}
	merged := obs.MergeTraces(clientEvents, serverEvents)
	tracedMS := merged.UnavailUS() / 1000
	traceErrPct := float64(-1)
	if unavailMS > 0 {
		traceErrPct = 100 * float64(tracedMS-unavailMS) / float64(unavailMS)
		if traceErrPct < 0 {
			traceErrPct = -traceErrPct
		}
	}
	yesno := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}

	t1 := metrics.NewTable(
		fmt.Sprintf("E33a — crash/restart recovery (%d tenants, %d flows, %.0f%% UDP loss each way)",
			rep.Tenants, rep.Flows, lossProb*100),
		"metric", "value")
	t1.AddRow("flows completed", rep.Flows)
	t1.AddRow("live tenants", rep.Tenants)
	t1.AddRow("tenants re-attached", rep.ReattachedTenants)
	t1.AddRow("re-attach rounds", rep.Reattaches)
	t1.AddRow("ledger VCs re-opened", rep.ReattachVCs)
	t1.AddRow("ledger VCs refused on re-open", rep.ReattachFailedVCs)
	t1.AddRow("unavailability window (ms)", unavailMS)
	t1.AddRow("unavailability window from traces (ms)", tracedMS)
	t1.AddRow("trace window error (%)", fmt.Sprintf("%.1f", traceErrPct))
	t1.AddRow("spans captured (client+server)", merged.ClientEvents+merged.ServerEvents)
	t1.AddRow("matched request/reply pairs", merged.MatchedAttempts)
	t1.AddRow("clock offsets recovered (incarnations)", len(merged.Offsets))
	t1.AddRow("orphan VCs adopted at restart", orphansAdopted)
	t1.AddRow("orphan VCs after lease expiry", orphansAfter)
	t1.AddRow("orphans reclaimed", st2.OrphansReclaimed)
	t1.AddRow("leases expired", st2.LeaseExpired)
	t1.AddRow("server quiesced", yesno(quiesced))
	t1.AddRow("client retransmits", rep.Retransmits)
	t1.AddRow("client orphan replies", rep.OrphanReplies)
	t1.AddRow("server replays (dup nonces)", st1.Replays+st2.Replays)

	t2 := metrics.NewTable("E33b — re-attach latency, stale refusal to session rebuilt (µs)",
		"metric", "value")
	t2.AddRow("mean", fmt.Sprintf("%.0f", rep.ReattachUS.Mean))
	t2.AddRow("p50", rep.ReattachUS.P50)
	t2.AddRow("p99", rep.ReattachUS.P99)
	t2.AddRow("max", rep.ReattachUS.Max)

	t3, err := runE33Herd(seed)
	if err != nil {
		return nil, err
	}
	return []*metrics.Table{t1, t2, t3}, nil
}

// Thundering-herd arm: herdClients clients aim their retransmits at a
// server that will never answer. Fixed pacing fires them in lockstep;
// full jitter decorrelates them. The first TWO sends per client are
// excluded from the peak — the initial send is synchronized by
// construction and the first retransmit always waits exactly Timeout in
// both arms — so the buckets compare the steady storm, which is what a
// recovering server actually absorbs.
const (
	herdClients = 48
	herdRetries = 7
	herdTimeout = 40 * time.Millisecond
	herdCap     = 300 * time.Millisecond
	herdBucket  = 20 * time.Millisecond
)

func runE33Herd(seed int64) (*metrics.Table, error) {
	fixedPeak, fixedTotal, err := herdArm(seed, true)
	if err != nil {
		return nil, err
	}
	jitterPeak, jitterTotal, err := herdArm(seed, false)
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable(
		fmt.Sprintf("E33c — retransmit pacing against a dead server (%d clients, %d attempts each)",
			herdClients, herdRetries),
		"metric", "value")
	t.AddRow(fmt.Sprintf("peak retransmits per %dms (fixed pacing)", herdBucket.Milliseconds()), fixedPeak)
	t.AddRow(fmt.Sprintf("peak retransmits per %dms (jittered backoff)", herdBucket.Milliseconds()), jitterPeak)
	t.AddRow("total retransmits (fixed pacing)", fixedTotal)
	t.AddRow("total retransmits (jittered backoff)", jitterTotal)
	return t, nil
}

// blackhole is a Transport that swallows every frame, timestamping it:
// the measurement side of a dead server.
type blackhole struct {
	mu    sync.Mutex
	start time.Time
	at    []time.Duration
}

func (b *blackhole) Send(from, to topology.NodeID, wire []byte, atUS int64) ([]ctrlnet.Delivery, error) {
	b.mu.Lock()
	b.at = append(b.at, time.Since(b.start))
	b.mu.Unlock()
	return nil, nil
}
func (b *blackhole) Poll() []ctrlnet.Delivery                { return nil }
func (b *blackhole) Flush() []ctrlnet.Delivery               { return nil }
func (b *blackhole) Close() error                            { return nil }
func (b *blackhole) Wait(d time.Duration) []ctrlnet.Delivery { time.Sleep(d); return nil }

func herdArm(seed int64, noJitter bool) (peak int, total int64, err error) {
	holes := make([]*blackhole, herdClients)
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, herdClients)
	for i := 0; i < herdClients; i++ {
		holes[i] = &blackhole{start: start}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, cerr := svc.NewClient(svc.ClientConfig{
				Transport: holes[i],
				Self:      topology.NodeID(1 + i),
				Server:    0,
				Tenant:    uint64(i + 1),
				Timeout:   herdTimeout,
				Retries:   herdRetries,
				RetryCap:  herdCap,
				NoJitter:  noJitter,
				Seed:      seed + int64(i)*31 + 7,
			})
			if cerr != nil {
				errs[i] = cerr
				return
			}
			defer cl.Close()
			if _, herr := cl.Hello(); herr == nil {
				errs[i] = errors.New("dead server answered a hello")
			}
		}(i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return 0, 0, e
		}
	}
	buckets := map[int64]int{}
	for _, h := range holes {
		h.mu.Lock()
		at := append([]time.Duration(nil), h.at...)
		h.mu.Unlock()
		if len(at) > 1 {
			total += int64(len(at) - 1)
		}
		for i, d := range at {
			if i < 2 {
				continue
			}
			buckets[int64(d/herdBucket)]++
		}
	}
	for _, n := range buckets {
		if n > peak {
			peak = n
		}
	}
	return peak, total, nil
}
