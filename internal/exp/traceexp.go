package exp

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/ctrlnet"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/svc"
	"repro/internal/topology"
	"repro/internal/workload"
)

// E34: the price of observability. The cross-process tracing layer (spans
// in every control frame, a flight recorder in both processes, JSONL
// emission) must cost NOTHING until it is switched on: with tracing
// disabled the request hot path must allocate exactly what it did before
// the tracing PR (the PR 9 baseline, pinned at 9 allocs per
// open+close pair by svc's hot-path test), and the E32 setup-rate harness
// must run at full speed. With tracing fully on, the overhead is measured
// and reported — the operator's price list, not a claim.
//
// Alloc counts are exact in a quiet process (an2bench runs experiments
// sequentially); the throughput arm is wall-clock and therefore reported,
// not byte-compared, like E32 itself.

func init() {
	register(&Experiment{
		ID:    "E34",
		Title: "Tracing overhead: request hot path and setup rate, disabled vs fully traced",
		Claim: "service tracing is free until enabled: with spans off the request hot path allocates exactly the pre-tracing baseline (0 added allocs per open+close pair) and the E32 tenant-churn harness runs at full setup rate; with spans and the flight recorder on, the added cost is bounded and measured",
		Run:   runE34,
		Quick: false,
	})
}

// e34BaselineAllocs is the pre-tracing open+close allocation count, from
// the PR 9 hot path (pinned by svc.TestRequestHotPathAllocsUnchanged).
const e34BaselineAllocs = 9.0

// e34Flows keeps the two throughput arms short enough to run back to
// back while still amortizing startup across tens of thousands of flows.
// A variable only so the package's -short test run can shrink it.
var e34Flows = 20_000

func runE34(seed int64) ([]*metrics.Table, error) {
	disabled, err := e34AllocsPerPair(seed, false, false, false)
	if err != nil {
		return nil, err
	}
	recorderOnly, err := e34AllocsPerPair(seed, false, true, false)
	if err != nil {
		return nil, err
	}
	fullTrace, err := e34AllocsPerPair(seed, true, true, true)
	if err != nil {
		return nil, err
	}
	added := disabled - e34BaselineAllocs
	if math.Abs(added) < 0.005 {
		added = 0 // don't render -0.00
	}

	t1 := metrics.NewTable("E34a — request hot path, allocations per open+close pair",
		"metric", "value")
	t1.AddRow("pre-tracing baseline (PR 9)", fmt.Sprintf("%.2f", e34BaselineAllocs))
	t1.AddRow("tracing disabled", fmt.Sprintf("%.2f", disabled))
	t1.AddRow("added allocs/op (tracing disabled)", fmt.Sprintf("%.2f", added))
	t1.AddRow("flight recorder armed, untraced frames", fmt.Sprintf("%.2f", recorderOnly))
	t1.AddRow("fully traced (spans + recorder)", fmt.Sprintf("%.2f", fullTrace))

	offRep, _, offSteps, err := e34Workload(seed, false)
	if err != nil {
		return nil, err
	}
	onRep, spans, onSteps, err := e34Workload(seed, true)
	if err != nil {
		return nil, err
	}
	ReportSlots(offSteps + onSteps)
	overhead := float64(0)
	if offRep.SetupPerSec > 0 {
		overhead = 100 * (offRep.SetupPerSec - onRep.SetupPerSec) / offRep.SetupPerSec
	}

	t2 := metrics.NewTable(
		fmt.Sprintf("E34b — E32 setup-rate harness ablation (%d tenants, %d flows over loopback UDP)",
			offRep.Tenants, offRep.Flows),
		"metric", "value")
	t2.AddRow("VC setups/sec (tracing disabled)", fmt.Sprintf("%.0f", offRep.SetupPerSec))
	t2.AddRow("VC setups/sec (spans + recorder on)", fmt.Sprintf("%.0f", onRep.SetupPerSec))
	t2.AddRow("throughput overhead (%)", fmt.Sprintf("%.1f", overhead))
	t2.AddRow("admission p50 µs (tracing disabled)", offRep.Setup.P50)
	t2.AddRow("admission p50 µs (spans + recorder on)", onRep.Setup.P50)
	t2.AddRow("spans emitted (client+server)", spans)
	return []*metrics.Table{t1, t2}, nil
}

// e34AllocsPerPair measures allocations per open+close request pair
// against an in-memory server — the exact probe shape the svc hot-path
// test pins — with the given tracing configuration. Min of several runs:
// in a quiet process the count is exact; under concurrent test runners
// the minimum sheds their noise.
func e34AllocsPerPair(seed int64, withSpans, withRing, tracedFrames bool) (float64, error) {
	g, err := topology.Torus(3, 3, 10)
	if err != nil {
		return 0, err
	}
	if err := topology.AttachHosts(g, 2, 1); err != nil {
		return 0, err
	}
	lan, err := core.New(core.Config{Topology: g, FrameSlots: 128, Seed: 1})
	if err != nil {
		return 0, err
	}
	net, err := ctrlnet.New(ctrlnet.Config{})
	if err != nil {
		return 0, err
	}
	cfg := svc.Config{LAN: lan, Transport: net, Node: 0, Incarnation: 7}
	var sink countWriter
	if withSpans {
		cfg.Spans = obs.NewSpanWriter(&sink)
	}
	if withRing {
		cfg.Ring = obs.NewRing(1024)
	}
	cfg.SpanSeed = uint64(seed) + 1
	srv, err := svc.NewServer(cfg)
	if err != nil {
		return 0, err
	}
	hosts := g.Hosts()
	hello, err := proto.Marshal(&proto.Message{Kind: proto.KindHello, Epoch: 1, Initiator: 1, VTimeUS: time.Now().UnixMicro()})
	if err != nil {
		return 0, err
	}
	srv.ServeOne(ctrlnet.Delivery{From: 100, To: 0, Wire: hello})

	nonce := uint64(2)
	trace := uint64(0)
	pair := func() {
		nonce++
		req := &proto.Message{
			Kind: proto.KindVCRequest, Epoch: 1, Initiator: nonce, From: 7,
			VTimeUS: time.Now().UnixMicro(),
			Links:   []proto.LinkRec{{A: int32(hosts[0]), B: int32(hosts[1])}},
		}
		cls := &proto.Message{
			Kind: proto.KindVCClose, Epoch: 1, Initiator: nonce + 1_000_000, From: 7,
			VTimeUS: time.Now().UnixMicro(), Depth: int32(1),
		}
		if tracedFrames {
			trace++
			req.TraceID, req.Span = trace, trace*2+1
			cls.TraceID, cls.Span = trace, trace*2+2
		}
		wire, _ := proto.Marshal(req)
		srv.ServeOne(ctrlnet.Delivery{From: 100, To: 0, Wire: wire})
		wire, _ = proto.Marshal(cls)
		srv.ServeOne(ctrlnet.Delivery{From: 100, To: 0, Wire: wire})
	}
	// Measure like testing.AllocsPerRun does: one P and the collector
	// parked, so the Mallocs delta counts only the request path and not
	// concurrent GC workers.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func(n int) uint64 {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			pair()
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	const n = 500
	run(200) // warmup: caches, nonce window, span buffers
	best := uint64(math.MaxUint64)
	for r := 0; r < 5; r++ {
		if v := run(n); v < best {
			best = v
		}
	}
	// Integer division, exactly as testing.AllocsPerRun reports — the
	// pinned baseline of 9 was measured with those semantics, which
	// truncate the sub-1/op amortized tail (map and reply-queue growth in
	// the long-lived server) that any allocation-counting harness sees.
	return float64(best / uint64(n)), nil
}

// countWriter counts span bytes and lines without keeping them — the
// throughput arms need the emission cost, not the output.
type countWriter struct {
	bytes int64
	lines int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	c.bytes += int64(len(p))
	for _, b := range p {
		if b == '\n' {
			c.lines++
		}
	}
	return len(p), nil
}

// e34Workload is one E32-shaped run — 64 tenants over loopback UDP —
// with tracing either fully off or fully on (spans + recorder in both
// the server and every tenant client). Returns the workload report, the
// spans emitted across both processes, and the server's slot count.
func e34Workload(seed int64, traced bool) (*workload.TenantsReport, int64, int64, error) {
	g, err := topology.Torus(4, 4, 10)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := topology.AttachHosts(g, 3, 1); err != nil {
		return nil, 0, 0, err
	}
	lan, err := core.New(core.Config{Topology: g, FrameSlots: 128, Seed: seed})
	if err != nil {
		return nil, 0, 0, err
	}
	tr, err := ctrlnet.NewUDP(ctrlnet.UDPConfig{
		Local: map[topology.NodeID]string{0: "127.0.0.1:0"},
	})
	if err != nil {
		return nil, 0, 0, err
	}
	defer tr.Close()

	var srvSink, clSink countWriter
	cfg := svc.Config{
		LAN: lan, Transport: tr, Node: 0,
		MaxVCsPerTenant:        8,
		MaxGuaranteedPerTenant: 4,
		Tick:                   time.Millisecond,
	}
	wcfg := workload.TenantsConfig{
		ServerAddr:    tr.Addr(0).String(),
		Tenants:       64,
		Flows:         e34Flows,
		AggressorRate: 8,
		Seed:          seed,
	}
	var srvSpans, clSpans *obs.SpanWriter
	if traced {
		srvSpans = obs.NewSpanWriter(&srvSink)
		clSpans = obs.NewSpanWriter(&clSink)
		cfg.Spans, cfg.Ring, cfg.SpanSeed = srvSpans, obs.NewRing(1024), uint64(seed)+11
		wcfg.Spans, wcfg.Ring = clSpans, obs.NewRing(1024)
	}
	srv, err := svc.NewServer(cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()

	rep, err := workload.RunTenants(wcfg)
	if err != nil {
		srv.Stop()
		return nil, 0, 0, err
	}
	srv.Stop()
	if err := <-serveDone; err != nil {
		return nil, 0, 0, err
	}
	if traced {
		if err := srvSpans.Flush(); err != nil {
			return nil, 0, 0, err
		}
		if err := clSpans.Flush(); err != nil {
			return nil, 0, 0, err
		}
	}
	return rep, srvSink.lines + clSink.lines, srv.Stats().Steps, nil
}
