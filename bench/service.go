package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/ctrlnet"
	"repro/internal/obs"
	"repro/internal/svc"
	"repro/internal/topology"
)

// Service workloads run E32's deployment shape: an AN2 LAN behind
// svc.NewServer over ctrlnet.NewUDP on 127.0.0.1 (the host's loopback
// interface, not a real link), the server on its own goroutine in this
// process, and closed-loop tenant sessions — one goroutine and one UDP
// endpoint each — that send their next request only after the reply.

const (
	svcQuotaVCs   = 16 // per tenant; the workloads never hold more than 6
	svcQuotaCells = 16 // guaranteed cells/frame per tenant; never more than 6 held
	gtdShare      = 0.20
	mixedRing     = 6
	trafficCells  = 8
	serverNode    = topology.NodeID(0)
	firstClientID = topology.NodeID(1000)
)

// svcPlan selects one service workload.
type svcPlan struct {
	name   string
	mixed  bool // ring of open VCs with a traffic frame per cycle
	traced bool // the program's own span writer and flight recorder on
}

var svcPlans = map[string]svcPlan{
	"svc_churn":  {name: "svc_churn"},
	"svc_mixed":  {name: "svc_mixed", mixed: true},
	"svc_traced": {name: "svc_traced", traced: true},
}

// countWriter counts span bytes and lines without keeping them: the traced
// workload pays for emission, not for storage.
type countWriter struct {
	mu    sync.Mutex
	lines int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n := int64(0)
	for _, b := range p {
		if b == '\n' {
			n++
		}
	}
	c.mu.Lock()
	c.lines += n
	c.mu.Unlock()
	return len(p), nil
}

// serviceLAN builds the LAN every service workload and service rung uses.
func serviceLAN() (*core.LAN, error) {
	g, err := topology.Torus(4, 4, 10)
	if err != nil {
		return nil, err
	}
	if err := topology.AttachHosts(g, 3, 1); err != nil {
		return nil, err
	}
	return core.New(core.Config{Topology: g, FrameSlots: frameSlots})
}

// session is one tenant: its endpoint, its client, and what it measured.
type session struct {
	udp   *ctrlnet.UDP
	cl    *svc.Client
	hosts []topology.NodeID
	rng   splitmix
	rec   *recorder

	openNS    [][]uint32 // Client.Open latency of flows completed in each part of the window
	busyNS    int64      // time inside client calls, flows completed in the window
	attempted int64      // flows completed (or failed) in the window
	failed    int64
	flows     int64 // flows completed over the whole run, warm-up included
	offered   int64 // traffic cells offered over the whole run
	firstErr  error
}

// rig is a running service with its sessions attached.
type rig struct {
	lan       *core.LAN
	tr        *ctrlnet.UDP
	srv       *svc.Server
	serveDone chan error
	sessions  []*session
	served    time.Time
	srvSpans  *obs.SpanWriter
	clSpans   *obs.SpanWriter
	srvSink   *countWriter
	clSink    *countWriter
}

// startRig brings the whole service up: LAN, server socket, server, serve
// loop, and every session through Hello. This is what setup_s times.
func startRig(plan svcPlan, seed uint64, sessions int) (*rig, error) {
	lan, err := serviceLAN()
	if err != nil {
		return nil, err
	}
	tr, err := ctrlnet.NewUDP(ctrlnet.UDPConfig{
		Local: map[topology.NodeID]string{serverNode: "127.0.0.1:0"},
	})
	if err != nil {
		return nil, err
	}
	g := &rig{lan: lan, tr: tr, serveDone: make(chan error, 1)}
	cfg := svc.Config{
		LAN: lan, Transport: tr, Node: serverNode,
		MaxVCsPerTenant:        svcQuotaVCs,
		MaxGuaranteedPerTenant: svcQuotaCells,
		Tick:                   time.Millisecond,
	}
	var clRing *obs.Ring
	if plan.traced {
		g.srvSink, g.clSink = &countWriter{}, &countWriter{}
		g.srvSpans, g.clSpans = obs.NewSpanWriter(g.srvSink), obs.NewSpanWriter(g.clSink)
		cfg.Spans, cfg.Ring, cfg.SpanSeed = g.srvSpans, obs.NewRing(1024), seed+11
		clRing = obs.NewRing(1024)
	}
	g.srv, err = svc.NewServer(cfg)
	if err != nil {
		tr.Close()
		return nil, err
	}
	go func() { g.serveDone <- g.srv.Serve() }()
	g.served = time.Now()
	for i := 0; i < sessions; i++ {
		self := firstClientID + topology.NodeID(i)
		udp, err := ctrlnet.NewUDP(ctrlnet.UDPConfig{
			Local: map[topology.NodeID]string{self: "127.0.0.1:0"},
			Peers: map[topology.NodeID]string{serverNode: tr.Addr(serverNode).String()},
		})
		if err != nil {
			g.stop()
			return nil, err
		}
		s := &session{udp: udp, rng: newStream(seed, streamSession+uint64(i))}
		g.sessions = append(g.sessions, s)
		s.cl, err = svc.NewClient(svc.ClientConfig{
			Transport: udp, Self: self, Server: serverNode, Tenant: uint64(i + 1),
			Seed:  int64(seed) + int64(i)*6151 + 1,
			Spans: g.clSpans, Ring: clRing, SpanSeed: seed + uint64(i)*0x9E37 + 1,
		})
		if err != nil {
			g.stop()
			return nil, err
		}
		if s.hosts, err = s.cl.Hello(); err != nil {
			g.stop()
			return nil, fmt.Errorf("hello: %w", err)
		}
		if len(s.hosts) < 2 {
			g.stop()
			return nil, fmt.Errorf("hello returned %d hosts", len(s.hosts))
		}
	}
	return g, nil
}

// stop tears the rig down without the end-of-run checks (set-up repeats and
// error paths).
func (g *rig) stop() {
	for _, s := range g.sessions {
		// Endpoint first: the client's reader then sees a closed transport
		// at once where it would otherwise sit out its 50 ms receive wait.
		s.udp.Close()
		if s.cl != nil {
			s.cl.Close()
		}
	}
	g.srv.Stop()
	<-g.serveDone
}

// pair draws a seeded-random source and a different destination.
func (s *session) pair() (src, dst topology.NodeID) {
	i := s.rng.intn(len(s.hosts))
	j := s.rng.intn(len(s.hosts) - 1)
	if j >= i {
		j++
	}
	return s.hosts[i], s.hosts[j]
}

// run is the session's closed loop. A flow counts toward the window's
// numbers when it completes inside [winStart, winEnd); the loop ends with
// the first flow that completes after winEnd.
func (s *session) run(plan svcPlan, epoch time.Time, winStart, winEnd time.Duration) {
	var ring [mixedRing]cell.VCI
	var held uint64
	flowID := s.rec.flowBase()
	parts := len(s.openNS)
	part := (winEnd - winStart) / time.Duration(parts)
	for {
		src, dst := s.pair()
		rate := 0
		if s.rng.chance(gtdShare) {
			rate = 1
		}
		flowID++
		root := s.rec.begin("flow", 0, flowID)
		rootID := s.rec.id(root)

		sp := s.rec.begin("client.open", rootID, flowID)
		t0 := time.Now()
		vc, err := s.cl.Open(src, dst, rate)
		t1 := time.Now()
		s.rec.end(sp)
		busy := t1.Sub(t0)
		if err == nil && plan.mixed {
			sp = s.rec.begin("client.traffic", rootID, flowID)
			tt := time.Now()
			err = s.cl.Traffic(vc, trafficCells)
			busy += time.Since(tt)
			s.rec.end(sp)
			if err == nil {
				s.offered += trafficCells
			}
		}
		if err == nil {
			victim, closeIt := vc, true
			if plan.mixed {
				slot := held % mixedRing
				victim, closeIt = ring[slot], held >= mixedRing
				ring[slot] = vc
				held++
			}
			if closeIt {
				sp = s.rec.begin("client.close", rootID, flowID)
				tc := time.Now()
				err = s.cl.CloseVC(victim)
				busy += time.Since(tc)
				s.rec.end(sp)
			}
		}
		s.rec.end(root)
		done := time.Since(epoch)
		if err == nil {
			s.flows++
		} else if s.firstErr == nil {
			s.firstErr = err
		}
		if done >= winStart && done < winEnd {
			s.attempted++
			if err != nil {
				s.failed++
			} else {
				p := int((done - winStart) / part)
				if p >= parts {
					p = parts - 1
				}
				s.openNS[p] = append(s.openNS[p], uint32(t1.Sub(t0)))
				s.busyNS += int64(busy)
			}
		}
		if done >= winEnd {
			return
		}
		if err != nil {
			// A failed flow in a closed loop would otherwise spin; the
			// client has already waited out its own retries.
			time.Sleep(time.Millisecond)
		}
	}
}

// svcOpts sizes one run of a service workload.
type svcOpts struct {
	seed     uint64
	window   time.Duration
	warmup   time.Duration
	parts    int // parts the window is cut into
	sessions int
	setup    setupPolicy
	traced   bool // record the benchmark's own spans
}

// runService runs one service workload once: repeated set-up, the closed
// loops through warm-up and window, wind-down, the gate.
func runService(plan svcPlan, o svcOpts) (*workloadResult, error) {
	res := newResult(plan.name)
	var g *rig
	began := time.Now()
	for g == nil || o.setup.more(len(res.setups), time.Since(began)) {
		if g != nil {
			g.stop()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if g, err = startRig(plan, o.seed, o.sessions); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", plan.name, err)
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
	}
	res.e2e["setup_s"] = quietOfReps(res.setups, "s", int64(len(res.setups)))

	// Room for the samples is set aside before timing, so recording them
	// does not allocate inside the window.
	perPart := int(o.window.Seconds()/float64(o.parts)*30000) + 1024
	for i, s := range g.sessions {
		s.openNS = make([][]uint32, o.parts)
		for p := range s.openNS {
			s.openNS[p] = make([]uint32, 0, perPart)
		}
		if o.traced {
			s.rec = newRecorder(time.Now(), i)
		}
	}
	runtime.GC()
	epoch := time.Now()
	var wg sync.WaitGroup
	for _, s := range g.sessions {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			s.run(plan, epoch, o.warmup, o.warmup+o.window)
		}(s)
	}
	var memStart, memEnd, memLive runtime.MemStats
	time.Sleep(time.Until(epoch.Add(o.warmup)))
	runtime.ReadMemStats(&memStart)
	time.Sleep(time.Until(epoch.Add(o.warmup + o.window)))
	runtime.ReadMemStats(&memEnd)
	wg.Wait()
	// The samples become metrics and are let go before the live heap is read:
	// live_heap_mb is the service's memory, not the benchmark's.
	samples := g.reportWindow(res, o.window, o.parts)
	for _, s := range g.sessions {
		s.openNS = nil
	}
	runtime.GC()
	runtime.ReadMemStats(&memLive)

	end := g.windDown(res)
	res.e2e["live_heap_mb"] = single(float64(memLive.HeapInuse)/(1<<20), "MiB", 1)
	res.layer["svc.allocs_per_flow"] = single(float64(memEnd.Mallocs-memStart.Mallocs)/float64(max(samples, 1)), "count", samples)
	g.reportCounts(res, plan, end, samples)
	return res, nil
}

// rigEnd is what can be read only once the sessions are closed and the
// server has stopped.
type rigEnd struct {
	server        svc.Stats
	retransmits   int64
	orphanReplies int64
	rejected      int64   // UDP envelopes rejected, every endpoint
	servedS       float64 // wall seconds the server served
}

// windDown says Bye on every session, closes the endpoints and stops the
// server.
func (g *rig) windDown(res *workloadResult) rigEnd {
	var end rigEnd
	for _, s := range g.sessions {
		if err := s.cl.Bye(); err != nil {
			res.fail("bye: %v", err)
		}
		_, _, rej := s.udp.Counts()
		end.rejected += rej
		s.udp.Close()
		s.cl.Close()
		cs := s.cl.Stats()
		end.retransmits += cs.Retransmits
		end.orphanReplies += cs.OrphanReplies
	}
	g.srv.Stop()
	end.servedS = time.Since(g.served).Seconds()
	if err := <-g.serveDone; err != nil {
		res.fail("serve: %v", err)
	}
	end.server = g.srv.Stats()
	_, _, rej := g.tr.Counts()
	end.rejected += rej
	if g.srvSpans != nil {
		if err := g.srvSpans.Flush(); err != nil {
			res.fail("flush server spans: %v", err)
		}
		if err := g.clSpans.Flush(); err != nil {
			res.fail("flush client spans: %v", err)
		}
	}
	return end
}

// reportWindow turns the sessions' samples into the timing metrics and the
// flow counts: per part (merged over sessions) for the spread, and over the
// window's quiet parts taken together for the reported value. It returns the
// number of latency samples.
func (g *rig) reportWindow(res *workloadResult, window time.Duration, parts int) int64 {
	perS, p50, p99 := make([]float64, parts), make([]float64, parts), make([]float64, parts)
	var samples, busyNS int64
	partS := window.Seconds() / float64(parts)
	// openUS returns the sorted Client.Open latencies of the flows completed
	// in the given parts, in microseconds.
	openUS := func(of ...int) []float64 {
		var us []float64
		for _, p := range of {
			for _, s := range g.sessions {
				for _, ns := range s.openNS[p] {
					us = append(us, float64(ns)/1e3)
				}
			}
		}
		sort.Float64s(us)
		return us
	}
	for p := range perS {
		us := openUS(p)
		samples += int64(len(us))
		perS[p] = float64(len(us)) / partS
		p50[p], p99[p] = percentile(us, 0.50), percentile(us, 0.99)
	}
	quiet := quietParts(perS)
	quietUS := openUS(quiet...)
	for _, s := range g.sessions {
		res.attempted += s.attempted
		res.failed += s.failed
		busyNS += s.busyNS
		if s.firstErr != nil {
			res.fail("%d of %d flows in the window failed; first error of the run: %v", s.failed, s.attempted, s.firstErr)
		}
		if s.rec != nil {
			res.spans = append(res.spans, s.rec.spans...)
		}
	}
	if res.attempted == 0 {
		res.fail("no flow completed in the window")
		res.attempted, res.failed = 1, 1
	}
	res.e2e["setups_per_s"] = windowMetric(float64(len(quietUS))/(partS*float64(len(quiet))), perS, "1/s", samples)
	res.e2e["setup_p50_us"] = windowMetric(percentile(quietUS, 0.50), p50, "us", samples)
	res.e2e["setup_p99_us"] = windowMetric(percentile(quietUS, 0.99), p99, "us", samples)
	if v := res.e2e["setup_p99_us"].Value; v > p99LimitUS {
		res.notes = append(res.notes, fmt.Sprintf("setup_p99_us %.0f is over the service's latency limit of %d us", v, p99LimitUS))
	}
	res.e2e["failed_frac"] = single(float64(res.failed)/float64(res.attempted), "frac", res.attempted)
	res.layer["gen.busy_frac"] = single(
		1-float64(busyNS)/(float64(window)*float64(len(g.sessions))), "frac", samples)
	res.headline = res.e2e["setups_per_s"].Value
	return samples
}

// reportCounts applies the service's correctness gate and reports the
// counters of the stopped server and closed clients.
func (g *rig) reportCounts(res *workloadResult, plan svcPlan, end rigEnd, samples int64) {
	st := end.server
	if st.Refused != 0 {
		res.fail("server refused %d requests: %v", st.Refused, st.RefusedBy)
	}
	if end.rejected != 0 {
		res.fail("%d UDP envelopes rejected", end.rejected)
	}
	// A reply replayed from the nonce cache must be the answer to a client's
	// own retransmission (the box stalled past the 250 ms reply timeout:
	// weather, noted); one that is not means a datagram was duplicated.
	switch {
	case st.Replays > end.retransmits:
		res.fail("%d replies replayed from the nonce cache but only %d requests retransmitted on loss-free loopback", st.Replays, end.retransmits)
	case end.retransmits > 0:
		res.notes = append(res.notes, fmt.Sprintf("%d requests retransmitted after a 250 ms reply timeout (%d replayed from the nonce cache): the machine stalled", end.retransmits, st.Replays))
	}
	if left := len(g.lan.Circuits()); left != 0 {
		res.fail("%d circuits left on the LAN after Bye and Stop", left)
	}
	var flows, offered int64
	for _, s := range g.sessions {
		flows += s.flows
		offered += s.offered
	}
	if plan.mixed {
		delivered := float64(g.lan.NetStats().DeliveredCells)
		res.e2e["traffic_delivered_frac"] = single(delivered/float64(max(offered, 1)), "frac", offered)
		res.layer["traffic_delivered_frac"] = res.e2e["traffic_delivered_frac"]
		res.layer["svc.traffic_accept_frac"] = single(float64(st.TrafficCells)/float64(max(offered, 1)), "frac", offered)
	}
	res.layer["svc.retransmits"] = single(float64(end.retransmits), "count", samples)
	res.layer["svc.orphan_replies"] = single(float64(end.orphanReplies), "count", samples)
	res.layer["svc.replays"] = single(float64(st.Replays), "count", samples)
	res.layer["svc.refused"] = single(float64(st.Refused), "count", samples)
	res.layer["svc.shed"] = single(float64(st.Shed), "count", samples)
	res.layer["svc.dataplane_slots_per_s"] = single(float64(st.Steps)/end.servedS, "1/s", st.Steps)
	if plan.traced {
		lines := g.srvSink.lines + g.clSink.lines
		res.layer["obs.spans_per_flow"] = single(float64(lines)/float64(max(flows, 1)), "count", lines)
	}
}
