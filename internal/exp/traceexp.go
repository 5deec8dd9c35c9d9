package exp

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/ctrlnet"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/svc"
	"repro/internal/topology"
)

// E34: the price of observability. The cross-process tracing layer (spans
// in every control frame, a flight recorder in both processes, JSONL
// emission) must cost NOTHING until it is switched on: with tracing
// disabled the request hot path must allocate exactly what it did before
// the tracing PR (the PR 9 baseline, pinned at 9 allocs per open+close
// pair by svc's hot-path test). With tracing fully on, the added
// allocations are measured and reported — the operator's price list, not
// a claim. The other half of that price, the set-up rate, is a wall-clock
// quantity and lives in bench: svc_traced against svc_churn, reported as
// obs.traced_throughput_ratio.
//
// The probe reads no clock: the server's clock is fixed and the frames'
// stamps count up. Alloc counts are exact in a quiet process (an2bench
// runs experiments one at a time).

func init() {
	register(&Experiment{
		ID:    "E34",
		Title: "Tracing overhead: request hot path allocations, disabled vs fully traced",
		Claim: "service tracing is free until enabled: with spans off the request hot path allocates exactly the pre-tracing baseline (0 added allocs per open+close pair); with spans and the flight recorder on, the added cost is bounded and measured (set-up rate: bench's svc_traced against svc_churn, obs.traced_throughput_ratio)",
		Run:   runE34,
		Quick: true,
	})
}

// e34BaselineAllocs is the pre-tracing open+close allocation count, from
// the PR 9 hot path (pinned by svc.TestRequestHotPathAllocsUnchanged).
const e34BaselineAllocs = 9.0

// e34Epoch is the probe server's fixed clock.
var e34Epoch = time.Unix(1_000_000_000, 0)

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

	t := metrics.NewTable("E34a — request hot path, allocations per open+close pair",
		"metric", "value")
	t.AddRow("pre-tracing baseline (PR 9)", fmt.Sprintf("%.2f", e34BaselineAllocs))
	t.AddRow("tracing disabled", fmt.Sprintf("%.2f", disabled))
	t.AddRow("added allocs/op (tracing disabled)", fmt.Sprintf("%.2f", added))
	t.AddRow("flight recorder armed, untraced frames", fmt.Sprintf("%.2f", recorderOnly))
	t.AddRow("fully traced (spans + recorder)", fmt.Sprintf("%.2f", fullTrace))
	return []*metrics.Table{t}, nil
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
	cfg := svc.Config{LAN: lan, Transport: net, Node: 0, Incarnation: 7,
		Now: func() time.Time { return e34Epoch }}
	if withSpans {
		cfg.Spans = obs.NewSpanWriter(io.Discard)
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
	stamp := int64(0) // the frames' VTimeUS, which the server only echoes
	next := func() int64 { stamp++; return stamp }
	hello, err := proto.Marshal(&proto.Message{Kind: proto.KindHello, Epoch: 1, Initiator: 1, VTimeUS: next()})
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
			VTimeUS: next(),
			Links:   []proto.LinkRec{{A: int32(hosts[0]), B: int32(hosts[1])}},
		}
		cls := &proto.Message{
			Kind: proto.KindVCClose, Epoch: 1, Initiator: nonce + 1_000_000, From: 7,
			VTimeUS: next(), Depth: int32(1),
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
	run := func(n int) uint64 {
		mallocs, _ := allocsOf(func() {
			for i := 0; i < n; i++ {
				pair()
			}
		})
		return mallocs
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
