package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/bwcentral"
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/ctrlnet"
	"repro/internal/islip"
	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/pim"
	"repro/internal/proto"
	"repro/internal/schedule"
	"repro/internal/svc"
	"repro/internal/switchnode"
	"repro/internal/topology"
)

// The layer ladder times each layer's public functions from the outside:
// k repetitions per rung, their quiet quantile (as for a timed window, so
// that the budgets add up) and spread reported, allocations counted
// as runtime.MemStats.Mallocs deltas on one P with the collector parked
// (the way exp.e34AllocsPerPair pins the service hot path). Rungs are the
// same whatever workload the run is about, so any traced run can print the
// whole ladder.

const ladderReps = 5

// ladder carries the rung results and the spans recorded around them.
type ladder struct {
	m     map[string]metric
	rec   *recorder
	scale float64 // iteration-count multiplier (quick runs use a fraction)
	seed  uint64

	// satCellsPerStep is how many cells the saturated switch of the
	// switchnode.step_ns rung moves per Step, so the slot budget can price a
	// cell hop as (step_ns - step_reserved_ns) / satCellsPerStep.
	satCellsPerStep float64
}

// iters scales a rung's iteration count, never below 1/50 of full size.
func (l *ladder) iters(n int) int {
	v := int(float64(n) * l.scale)
	if v < n/50 {
		v = n / 50
	}
	if v < 8 {
		v = 8
	}
	return v
}

// reps runs body once as a warm-up (warm is true) and then ladderReps times,
// each under a "rep" span below a root span named for the rung, stopping at
// the first error.
func (l *ladder) reps(rung string, body func(warm bool) error) error {
	root := l.rec.begin("ladder."+rung, 0, 0)
	defer l.rec.end(root)
	for r := -1; r < ladderReps; r++ {
		sp := l.rec.begin("rep", l.rec.id(root), uint64(r+1))
		err := body(r < 0)
		l.rec.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", rung, err)
		}
	}
	return nil
}

// timed times fn(n) as a whole, once per repetition, and returns the
// per-operation nanoseconds of each.
func (l *ladder) timed(rung string, n int, fn func(n int)) []float64 {
	out := make([]float64, 0, ladderReps)
	_ = l.reps(rung, func(warm bool) error { // the body cannot fail
		if warm {
			fn(n/4 + 1)
			return nil
		}
		t0 := time.Now()
		fn(n)
		out = append(out, float64(time.Since(t0))/float64(n))
		return nil
	})
	return out
}

// timedEach times every call on its own (for operations of microseconds,
// where a percentile is wanted) and returns the given quantiles of each
// repetition, in microseconds: out[q][rep].
func (l *ladder) timedEach(rung string, n int, call func(), quantiles ...float64) [][]float64 {
	out := make([][]float64, len(quantiles))
	_ = l.reps(rung, func(warm bool) error { // the body cannot fail
		if warm {
			for i := 0; i < n/4+1; i++ {
				call()
			}
			return nil
		}
		us := make([]float64, n)
		for i := range us {
			t0 := time.Now()
			call()
			us[i] = float64(time.Since(t0)) / 1e3
		}
		sort.Float64s(us)
		for q, quantile := range quantiles {
			out[q] = append(out[q], percentile(us, quantile))
		}
		return nil
	})
	return out
}

// allocs counts heap allocations per call of fn(n)'s n operations: one P,
// collector parked, minimum of three runs.
func allocs(n int, fn func(n int)) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn(n/4 + 1)
	best := uint64(math.MaxUint64)
	var m0, m1 runtime.MemStats
	for r := 0; r < 3; r++ {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		fn(n)
		runtime.ReadMemStats(&m1)
		if d := m1.Mallocs - m0.Mallocs; d < best {
			best = d
		}
	}
	return float64(best) / float64(n)
}

func (l *ladder) put(name, unit string, parts []float64, n int) {
	l.m[name] = quietOfReps(parts, unit, int64(n))
}

func (l *ladder) putOne(name, unit string, v float64, n int) {
	l.m[name] = single(v, unit, int64(n))
}

// runLadder measures every rung.
func runLadder(seed uint64, scale float64, rec *recorder) (*ladder, error) {
	l := &ladder{m: map[string]metric{}, rec: rec, scale: scale, seed: seed}
	l.matching()
	if err := l.switchStep(); err != nil {
		return nil, fmt.Errorf("ladder switchnode: %w", err)
	}
	if err := l.codec(); err != nil {
		return nil, fmt.Errorf("ladder proto: %w", err)
	}
	if err := l.udp(); err != nil {
		return nil, fmt.Errorf("ladder ctrlnet: %w", err)
	}
	if err := l.service(); err != nil {
		return nil, fmt.Errorf("ladder svc: %w", err)
	}
	if err := l.clientRPC(); err != nil {
		return nil, fmt.Errorf("ladder svc client: %w", err)
	}
	if err := l.admission(); err != nil {
		return nil, fmt.Errorf("ladder core: %w", err)
	}
	if err := l.frameSchedule(); err != nil {
		return nil, fmt.Errorf("ladder schedule: %w", err)
	}
	l.tracing()
	// Derived rungs.
	l.putOne("switchnode.self_ns", "ns", l.m["switchnode.step_ns"].Value-l.m["pim.match_sat_ns"].Value, 1)
	admit := (1-gtdShare)*l.m["core.admit_be_ns"].Value + gtdShare*l.m["core.admit_gtd_ns"].Value + l.m["core.close_ns"].Value
	l.putOne("svc.self_ns", "ns",
		l.m["svc.handle_ns"].Value-2*l.m["proto.unmarshal_ns"].Value-admit-2*l.m["proto.marshal_ns"].Value, 1)
	return l, nil
}

// denseRequests builds 16x16 request matrices at fabric_dense's occupancy:
// a torus switch uses 8 of its 16 ports (4 neighbours, 4 hosts), and each
// active input holds cells for `per` of the 8 active outputs.
func denseRequests(r *splitmix, count, per int) []*matching.Requests {
	out := make([]*matching.Requests, count)
	for k := range out {
		req := matching.NewRequests(16)
		for in := 0; in < 8; in++ {
			for _, o := range distinct(r, 8, per) {
				req.Set(in, o)
			}
		}
		out[k] = req
	}
	return out
}

// distinct draws k different values in [0, n).
func distinct(r *splitmix, n, k int) []int {
	seen := map[int]bool{}
	out := make([]int, 0, k)
	for len(out) < k {
		v := r.intn(n)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// saturatedRequests is the matrix a saturated BenchmarkStep16-shaped switch
// shows its matcher: every input holds cells for four consecutive outputs.
func saturatedRequests() *matching.Requests {
	req := matching.NewRequests(16)
	for in := 0; in < 16; in++ {
		for k := 0; k < 4; k++ {
			req.Set(in, (in+k)%16)
		}
	}
	return req
}

func (l *ladder) matching() {
	r := newStream(l.seed, 11)
	reqs := denseRequests(&r, 64, 3)
	n := l.iters(50000)
	eng := pim.NewSequential(rand.New(rand.NewSource(int64(l.seed) + 1)))
	var matched, possible int64
	match := func(n int) {
		for i := 0; i < n; i++ {
			res := eng.Match(reqs[i%len(reqs)], pim.DefaultIterations)
			matched += int64(res.Match.Size())
		}
	}
	l.put("pim.match_ns", "ns", l.timed("pim.match", n, match), n)
	l.putOne("pim.match_allocs", "count", allocs(n, match), n)
	// Fill: matched pairs over the most any matching could pair up, taken
	// as min(requesting inputs, requested outputs).
	matched = 0
	for _, req := range reqs {
		matched += int64(eng.Match(req, pim.DefaultIterations).Match.Size())
		ins, outs := 0, map[int]bool{}
		for in := 0; in < req.N(); in++ {
			if os := req.Outputs(in); len(os) > 0 {
				ins++
				for _, o := range os {
					outs[o] = true
				}
			}
		}
		possible += int64(min(ins, len(outs)))
	}
	l.putOne("pim.match_fill_frac", "frac", float64(matched)/float64(possible), len(reqs))

	sat := saturatedRequests()
	l.put("pim.match_sat_ns", "ns", l.timed("pim.match_sat", n, func(n int) {
		for i := 0; i < n; i++ {
			eng.Match(sat, pim.DefaultIterations)
		}
	}), n)

	is := islip.New(16, islip.DefaultIterations, int64(l.seed)+2)
	ni := l.iters(20000)
	l.put("islip.match_ns", "ns", l.timed("islip.match", ni, func(n int) {
		for i := 0; i < n; i++ {
			is.Schedule(reqs[i%len(reqs)])
		}
	}), ni)
}

// switchStep times Switch.Step on a saturated 16-port per-VC switch (the
// BenchmarkStep16 shape), each departed cell replaced at once so the load
// holds; on an empty switch with a reservation; and on a quiescent switch.
func (l *ladder) switchStep() error {
	const n16 = 16
	sw, err := switchnode.New(switchnode.Config{N: n16, Discipline: switchnode.DisciplinePerVC, FrameSlots: 16, Seed: 1})
	if err != nil {
		return err
	}
	vc := func(in, out int) cell.VCI { return cell.VCI(1 + in*n16 + out) }
	for round := 0; round < 8; round++ {
		for in := 0; in < n16; in++ {
			for k := 0; k < 4; k++ {
				out := (in + k) % n16
				sw.EnqueueBestEffort(in, cell.Cell{VC: vc(in, out), Class: cell.BestEffort}, out)
			}
		}
	}
	var departed int64
	step := func(n int) {
		for i := 0; i < n; i++ {
			deps := sw.Step()
			departed += int64(len(deps))
			for _, d := range deps {
				in := int(d.Cell.VC-1) / n16
				sw.EnqueueBestEffort(in, d.Cell, d.Output)
			}
		}
	}
	n := l.iters(10000)
	l.put("switchnode.step_ns", "ns", l.timed("switchnode.step", n, step), n)
	departed = 0
	l.putOne("switchnode.step_allocs", "count", allocs(n, step), n)
	l.satCellsPerStep = float64(departed) / float64(3*n+n/4+1)

	// A switch with a reservation in its frame and nothing buffered is not
	// quiescent: it takes the full Step and moves no cell. This is the
	// floor every on-path fabric switch pays per slot.
	reserved, err := switchnode.New(switchnode.Config{N: n16, Discipline: switchnode.DisciplinePerVC, FrameSlots: frameSlots, Seed: 1})
	if err != nil {
		return err
	}
	if err := reserved.Reserve(0, 1, gtdCellsPerFrm); err != nil {
		return err
	}
	nr := l.iters(200000)
	l.put("switchnode.step_reserved_ns", "ns", l.timed("switchnode.step_reserved", nr, func(n int) {
		for i := 0; i < n; i++ {
			reserved.Step()
		}
	}), nr)

	// A quiescent switch takes the engine's idle path: the Quiescent check
	// and StepIdle, exactly the two calls simnet makes for it.
	idle, err := switchnode.New(switchnode.Config{N: n16, Discipline: switchnode.DisciplinePerVC, FrameSlots: frameSlots, Seed: 1})
	if err != nil {
		return err
	}
	ni := l.iters(5000000)
	l.put("switchnode.step_idle_ns", "ns", l.timed("switchnode.step_idle", ni, func(n int) {
		for i := 0; i < n; i++ {
			if idle.Quiescent() {
				idle.StepIdle()
			}
		}
	}), ni)
	return nil
}

// vcRequest is the frame the codec rungs and the UDP rung carry: the
// open request of the service workloads.
func vcRequest(nonce uint64, src, dst topology.NodeID, rate int32) *proto.Message {
	return &proto.Message{
		Kind: proto.KindVCRequest, Epoch: 1, Initiator: nonce, From: 7,
		VTimeUS: 1, Depth: rate,
		Links: []proto.LinkRec{{A: int32(src), B: int32(dst)}},
	}
}

func (l *ladder) codec() error {
	m := vcRequest(3, 17, 42, 0)
	wire, err := proto.Marshal(m)
	if err != nil {
		return err
	}
	n := l.iters(200000)
	marshal := func(n int) {
		for i := 0; i < n; i++ {
			_, _ = proto.Marshal(m) // cannot fail: the same frame marshalled above
		}
	}
	unmarshal := func(n int) {
		for i := 0; i < n; i++ {
			_, _ = proto.Unmarshal(wire) // cannot fail: our own encoding
		}
	}
	l.put("proto.marshal_ns", "ns", l.timed("proto.marshal", n, marshal), n)
	l.put("proto.unmarshal_ns", "ns", l.timed("proto.unmarshal", n, unmarshal), n)
	l.putOne("proto.allocs_per_msg", "count", (allocs(n, marshal)+allocs(n, unmarshal))/2, n)
	l.putOne("proto.frame_bytes", "bytes", float64(len(wire)), 1)
	return nil
}

// udp times a round trip between two ctrlnet.UDP endpoints on loopback
// with no server logic: Send, the peer's Wait, an echo Send, our Wait.
func (l *ladder) udp() error {
	const a, b = topology.NodeID(1), topology.NodeID(2)
	ea, err := ctrlnet.NewUDP(ctrlnet.UDPConfig{Local: map[topology.NodeID]string{a: "127.0.0.1:0"}})
	if err != nil {
		return err
	}
	defer ea.Close()
	eb, err := ctrlnet.NewUDP(ctrlnet.UDPConfig{
		Local: map[topology.NodeID]string{b: "127.0.0.1:0"},
		Peers: map[topology.NodeID]string{a: ea.Addr(a).String()},
	})
	if err != nil {
		return err
	}
	if err := ea.SetPeer(b, eb.Addr(b).String()); err != nil {
		eb.Close()
		return err
	}
	stop, echoDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(echoDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, d := range eb.Wait(50 * time.Millisecond) {
				if _, err := eb.Send(b, a, d.Wire, 0); err != nil {
					return
				}
			}
		}
	}()
	defer func() { close(stop); eb.Close(); <-echoDone }()

	wire, err := proto.Marshal(vcRequest(3, 17, 42, 0))
	if err != nil {
		return err
	}
	var lost int
	trip := func() {
		if _, err := ea.Send(a, b, wire, 0); err != nil {
			lost++
			return
		}
		if ds := ea.Wait(250 * time.Millisecond); len(ds) == 0 {
			lost++
		}
	}
	n := l.iters(4000)
	rtt := l.timedEach("ctrlnet.udp_rtt", n, trip, 0.50, 0.99)
	p50, p99 := rtt[0], rtt[1]
	if lost > 0 {
		return fmt.Errorf("%d loopback datagrams lost or refused", lost)
	}
	l.put("ctrlnet.udp_rtt_p50_us", "us", p50, n*ladderReps)
	l.put("ctrlnet.udp_rtt_p99_us", "us", p99, n*ladderReps)
	// A round trip is two messages, each sent and received once.
	l.putOne("ctrlnet.udp_allocs_per_msg", "count", allocs(n, func(n int) {
		for i := 0; i < n; i++ {
			trip()
		}
	})/2, n)
	_, _, rejA := ea.Counts()
	_, _, rejB := eb.Counts()
	l.putOne("ctrlnet.udp_rejected", "count", float64(rejA+rejB), n*ladderReps)
	return nil
}

// memServer is a service instance over the in-memory control channel, with
// one tenant registered, driven through ServeOne.
type memServer struct {
	lan   *core.LAN
	srv   *svc.Server
	hosts []topology.NodeID
	nonce uint64
}

const memIncarnation = 7

func newMemServer() (*memServer, error) {
	lan, err := serviceLAN()
	if err != nil {
		return nil, err
	}
	net, err := ctrlnet.New(ctrlnet.Config{})
	if err != nil {
		return nil, err
	}
	srv, err := svc.NewServer(svc.Config{
		LAN: lan, Transport: net, Node: serverNode, Incarnation: memIncarnation,
		MaxVCsPerTenant: svcQuotaVCs, MaxGuaranteedPerTenant: svcQuotaCells,
	})
	if err != nil {
		return nil, err
	}
	m := &memServer{lan: lan, srv: srv, hosts: lan.Topology().Hosts(), nonce: 1}
	hello, err := proto.Marshal(&proto.Message{Kind: proto.KindHello, Epoch: 1, Initiator: 1, VTimeUS: 1})
	if err != nil {
		return nil, err
	}
	srv.ServeOne(ctrlnet.Delivery{From: firstClientID, To: serverNode, Wire: hello})
	return m, nil
}

func (m *memServer) serve(msg *proto.Message) {
	m.nonce++
	msg.Epoch, msg.Initiator, msg.VTimeUS = 1, m.nonce, 1
	wire, _ := proto.Marshal(msg) // cannot fail: fixed-shape frames built here
	m.srv.ServeOne(ctrlnet.Delivery{From: firstClientID, To: serverNode, Wire: wire})
}

// flowMix draws the service workloads' request mix: a random host pair,
// guaranteed (rate 1) for one flow in five.
func flowMix(r *splitmix, hosts []topology.NodeID) (src, dst topology.NodeID, rate int) {
	i := r.intn(len(hosts))
	j := r.intn(len(hosts) - 1)
	if j >= i {
		j++
	}
	if r.chance(gtdShare) {
		rate = 1
	}
	return hosts[i], hosts[j], rate
}

// service times Server.ServeOne over the in-memory channel: an open+close
// pair in the workloads' request mix (the shape of the pinned 9-alloc
// probe), the open alone, and an 8-cell traffic frame.
func (l *ladder) service() error {
	m, err := newMemServer()
	if err != nil {
		return err
	}
	r := newStream(l.seed, 12)
	// The server hands out VCIs in order from 1, one per admitted open, so
	// the circuit to close is known without decoding the reply.
	next := cell.VCI(1)
	var openNS int64
	pairs := func(n int) {
		for i := 0; i < n; i++ {
			src, dst, rate := flowMix(&r, m.hosts)
			t0 := time.Now()
			m.serve(&proto.Message{Kind: proto.KindVCRequest, From: memIncarnation, Depth: int32(rate),
				Links: []proto.LinkRec{{A: int32(src), B: int32(dst)}}})
			openNS += int64(time.Since(t0))
			m.serve(&proto.Message{Kind: proto.KindVCClose, From: memIncarnation, Depth: int32(next)})
			next++
		}
	}
	n := l.iters(4000)
	var pairNS, openOnly []float64
	_ = l.reps("svc.handle", func(warm bool) error { // failures show in the checks below
		if warm {
			pairs(n/4 + 1)
			return nil
		}
		openNS = 0
		t0 := time.Now()
		pairs(n)
		pairNS = append(pairNS, float64(time.Since(t0))/float64(n))
		openOnly = append(openOnly, float64(openNS)/float64(n))
		return nil
	})
	l.put("svc.handle_ns", "ns", pairNS, n)
	l.put("svc.handle_open_ns", "ns", openOnly, n)
	l.putOne("svc.handle_allocs", "count", allocs(n, pairs), n)
	if left := len(m.lan.Circuits()); left != 0 {
		return fmt.Errorf("%d circuits left after open+close pairs (VCI bookkeeping drifted)", left)
	}
	if st := m.srv.Stats(); st.Refused != 0 {
		return fmt.Errorf("in-memory server refused %d requests: %v", st.Refused, st.RefusedBy)
	}

	// Traffic frames queue cells on an open circuit; the circuit is closed
	// and reopened every repetition so the queue does not grow without end.
	src, dst, _ := flowMix(&r, m.hosts)
	nt := l.iters(4000)
	l.put("svc.traffic_handle_ns", "ns", l.timed("svc.traffic_handle", nt, func(n int) {
		m.serve(&proto.Message{Kind: proto.KindVCRequest, From: memIncarnation,
			Links: []proto.LinkRec{{A: int32(src), B: int32(dst)}}})
		vc := next
		next++
		frame := &proto.Message{Kind: proto.KindTraffic, From: int32(vc), Depth: trafficCells}
		for i := 0; i < n; i++ {
			m.serve(frame)
		}
		m.serve(&proto.Message{Kind: proto.KindVCClose, From: memIncarnation, Depth: int32(vc)})
	}), nt)
	return nil
}

// loopback is an in-process control transport that answers every request
// on the spot with an accepting vc-reply: no socket, no server logic. What
// Client.Open costs over it is the client's own machinery — nonce table,
// timer, encode, the reader goroutine's decode and hand-off to the caller.
type loopback struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []ctrlnet.Delivery
	closed bool
}

func newLoopback() *loopback {
	l := &loopback{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *loopback) Send(from, to topology.NodeID, wire []byte, _ int64) ([]ctrlnet.Delivery, error) {
	req, err := proto.Unmarshal(wire)
	if err != nil {
		return nil, err
	}
	rep, err := proto.Marshal(&proto.Message{
		Kind: proto.KindVCReply, Epoch: req.Epoch, Initiator: req.Initiator,
		From: memIncarnation, VTimeUS: req.VTimeUS, Accept: true, Depth: 1,
	})
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ctrlnet.ErrClosed
	}
	l.queue = append(l.queue, ctrlnet.Delivery{From: to, To: from, Wire: rep})
	l.cond.Broadcast()
	return nil, nil
}

func (l *loopback) Poll() []ctrlnet.Delivery  { return nil }
func (l *loopback) Flush() []ctrlnet.Delivery { return nil }

func (l *loopback) Close() error {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
	return nil
}

// Wait blocks like ctrlnet.UDP.Wait does: a condition variable with a
// one-shot timer bounding the wait.
func (l *loopback) Wait(d time.Duration) []ctrlnet.Delivery {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.queue) == 0 && !l.closed {
		t := time.AfterFunc(d, func() {
			l.mu.Lock()
			l.cond.Broadcast()
			l.mu.Unlock()
		})
		l.cond.Wait()
		t.Stop()
	}
	out := l.queue
	l.queue = nil
	return out
}

// clientRPC times Client.Open over the loopback transport. The responder's
// own decode and encode are subtracted, leaving the client's share.
func (l *ladder) clientRPC() error {
	tr := newLoopback()
	cl, err := svc.NewClient(svc.ClientConfig{
		Transport: tr, Self: firstClientID, Server: serverNode, Tenant: 1, Seed: int64(l.seed) + 1,
	})
	if err != nil {
		return err
	}
	defer func() { tr.Close(); cl.Close() }()
	n := l.iters(10000)
	var openErr error
	call := func() {
		if _, err := cl.Open(1, 2, 0); err != nil {
			openErr = err
		}
	}
	p50 := l.timedEach("svc.client_rpc", n, call, 0.50)[0]
	if openErr != nil {
		return openErr
	}
	codecUS := (l.m["proto.marshal_ns"].Value + l.m["proto.unmarshal_ns"].Value) / 1e3
	for i := range p50 {
		p50[i] -= codecUS
	}
	l.put("svc.client_rpc_us", "us", p50, n*ladderReps)
	return nil
}

// admission times the calls svc makes into core — LAN.OpenBestEffort,
// LAN.Reserve, LAN.Close — and the layers under Reserve, directly on the
// service LAN, in the workloads' request mix.
func (l *ladder) admission() error {
	lan, err := serviceLAN()
	if err != nil {
		return err
	}
	hosts := lan.Topology().Hosts()
	r := newStream(l.seed, 13)
	n := l.iters(4000)
	var be, gtd, cl []float64
	err = l.reps("core.admit", func(warm bool) error {
		var beNS, gtdNS, clNS, nBE, nGtd int64
		for i := 0; i < n; i++ {
			src, dst, rate := flowMix(&r, hosts)
			var vc cell.VCI
			var err error
			t0 := time.Now()
			if rate > 0 {
				vc, err = lan.Reserve(src, dst, rate)
			} else {
				vc, err = lan.OpenBestEffort(src, dst)
			}
			t1 := time.Now()
			if err == nil {
				err = lan.Close(vc)
			}
			t2 := time.Now()
			if err != nil {
				return fmt.Errorf("admission on an empty LAN: %w", err)
			}
			if rate > 0 {
				gtdNS += int64(t1.Sub(t0))
				nGtd++
			} else {
				beNS += int64(t1.Sub(t0))
				nBE++
			}
			clNS += int64(t2.Sub(t1))
		}
		if !warm {
			be = append(be, float64(beNS)/float64(max(nBE, 1)))
			gtd = append(gtd, float64(gtdNS)/float64(max(nGtd, 1)))
			cl = append(cl, float64(clNS)/float64(max(nBE+nGtd, 1)))
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.put("core.admit_be_ns", "ns", be, n)
	l.put("core.admit_gtd_ns", "ns", gtd, n)
	l.put("core.close_ns", "ns", cl, n)

	// One cell offered to the data plane: LAN.SendPacket of a one-cell
	// packet. The queue is drained between repetitions, outside the timing.
	vc, err := lan.OpenBestEffort(hosts[0], hosts[len(hosts)-1])
	if err != nil {
		return err
	}
	var pkt [packetLen]byte
	ns := l.iters(5000)
	send := make([]float64, 0, ladderReps)
	err = l.reps("core.send", func(warm bool) error {
		t0 := time.Now()
		for i := 0; i < ns; i++ {
			if err := lan.SendPacket(vc, pkt[:]); err != nil {
				return err
			}
		}
		d := time.Since(t0)
		if !warm {
			send = append(send, float64(d)/float64(ns))
		}
		for before := int64(-1); before != lan.NetStats().DeliveredCells; {
			before = lan.NetStats().DeliveredCells
			lan.Run(int64(ns))
		}
		lan.Packets(hosts[len(hosts)-1])
		return nil
	})
	if err != nil {
		return err
	}
	l.put("core.send_ns", "ns", send, ns)

	// Under Reserve: bandwidth central's Request and the router's
	// ShortestLegal, on the same LAN's router.
	central, err := bwcentral.New(bwcentral.Config{
		Topology: lan.Topology(), Router: lan.Router(), LinkCapacity: frameSlots / 2,
	})
	if err != nil {
		return err
	}
	nr := l.iters(4000)
	var reqNS []float64
	err = l.reps("bwcentral.request", func(warm bool) error {
		var sum int64
		for i := 0; i < nr; i++ {
			src, dst, _ := flowMix(&r, hosts)
			t0 := time.Now()
			res, err := central.Request(src, dst, 1)
			sum += int64(time.Since(t0))
			if err != nil {
				return err
			}
			if err := central.Release(res.VC); err != nil {
				return err
			}
		}
		if !warm {
			reqNS = append(reqNS, float64(sum)/float64(nr))
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.put("bwcentral.request_ns", "ns", reqNS, nr)

	router := lan.Router()
	pairsN := 1024
	type hp struct{ a, b topology.NodeID }
	hps := make([]hp, pairsN)
	for i := range hps {
		hps[i].a, hps[i].b, _ = flowMix(&r, hosts)
	}
	var routeErr error
	nr = l.iters(8000)
	l.put("routing.route_ns", "ns", l.timed("routing.route", nr, func(n int) {
		for i := 0; i < n; i++ {
			p := hps[i%pairsN]
			if _, err := router.ShortestLegal(p.a, p.b); err != nil {
				routeErr = err
			}
		}
	}), nr)
	return routeErr
}

// frameSchedule times Slepian–Duguid insertion into a half-full 16x128
// frame: each repetition inserts a batch of one-cell reservations (taking
// the frame from 1/2 to 5/8 full) and the batch is removed again, untimed.
func (l *ladder) frameSchedule() error {
	const n16, batch = 16, 256
	s, err := schedule.New(n16, frameSlots)
	if err != nil {
		return err
	}
	r := newStream(l.seed, 14)
	// Row and column loads are kept below the frame size by construction:
	// reservation k goes from input k%16 to a rotating output, 64 per port.
	for k := 0; k < n16*frameSlots/2; k++ {
		in := k % n16
		out := (in + k/n16) % n16
		if _, err := s.Insert(in, out); err != nil {
			return fmt.Errorf("prefill %d: %w", k, err)
		}
	}
	type pq struct{ p, q int }
	draw := func() []pq {
		// 16 more per input and per output: a random rotation per round.
		out := make([]pq, 0, batch)
		for round := 0; round < batch/n16; round++ {
			shift := r.intn(n16)
			for in := 0; in < n16; in++ {
				out = append(out, pq{in, (in + shift) % n16})
			}
		}
		return out
	}
	reps := l.iters(200)
	var nsParts []float64
	var moves, inserts int64
	err = l.reps("schedule.insert", func(warm bool) error {
		var sum int64
		for k := 0; k < reps; k++ {
			set := draw()
			t0 := time.Now()
			for _, e := range set {
				tr, err := s.Insert(e.p, e.q)
				if err != nil {
					return err
				}
				moves += int64(len(tr.Moves))
			}
			sum += int64(time.Since(t0))
			inserts += batch
			for _, e := range set {
				if err := s.Remove(e.p, e.q); err != nil {
					return err
				}
			}
		}
		if !warm {
			nsParts = append(nsParts, float64(sum)/float64(reps*batch))
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.put("schedule.insert_ns", "ns", nsParts, reps*batch)
	l.putOne("schedule.insert_moves_mean", "count", float64(moves)/float64(inserts), int(inserts))
	return nil
}

// tracing times what svc_traced adds to the request path: SpanWriter.Emit
// and Ring.Put of one service span.
func (l *ladder) tracing() {
	ev := obs.Event{Kind: obs.KindSvcHandle, WallUS: 1_700_000_000_000_000, Dur: 12,
		Trace: 77, Span: 78, Parent: 76, Node: memIncarnation, Epoch: 1, Seq: uint64(proto.KindVCRequest)}
	sw := obs.NewSpanWriter(&countWriter{})
	ring := obs.NewRing(1024)
	n := l.iters(50000)
	emit := func(n int) {
		for i := 0; i < n; i++ {
			sw.Emit(&ev)
		}
	}
	put := func(n int) {
		for i := 0; i < n; i++ {
			ring.Put(ev)
		}
	}
	l.put("obs.span_emit_ns", "ns", l.timed("obs.span_emit", n, emit), n)
	l.putOne("obs.span_emit_allocs", "count", allocs(n, emit), n)
	l.put("obs.ring_put_ns", "ns", l.timed("obs.ring_put", n, put), n)
	l.putOne("obs.ring_put_allocs", "count", allocs(n, put), n)
}
