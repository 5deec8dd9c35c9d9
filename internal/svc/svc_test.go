package svc

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/ctrlnet"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/topology"
)

func testLAN(t *testing.T) *core.LAN {
	t.Helper()
	g, err := topology.Torus(3, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AttachHosts(g, 2, 1); err != nil {
		t.Fatal(err)
	}
	lan, err := core.New(core.Config{Topology: g, FrameSlots: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return lan
}

// deliver hand-builds one tenant frame and feeds it straight to the
// server — the deterministic in-memory path (no sockets, no goroutines) —
// then checks the server's books.
func deliver(t *testing.T, s *Server, from topology.NodeID, m *proto.Message) {
	t.Helper()
	wire, err := proto.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	s.ServeOne(ctrlnet.Delivery{From: from, To: 0, Wire: wire})
	if err := s.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// loopNet is a minimal in-memory transport that records server replies so
// direct-drive tests can inspect them.
type loopNet struct {
	sent []*proto.Message
}

func (ln *loopNet) Send(from, to topology.NodeID, wire []byte, atUS int64) ([]ctrlnet.Delivery, error) {
	m, err := proto.Unmarshal(wire)
	if err != nil {
		return nil, err
	}
	ln.sent = append(ln.sent, m)
	return nil, nil
}
func (ln *loopNet) Poll() []ctrlnet.Delivery  { return nil }
func (ln *loopNet) Flush() []ctrlnet.Delivery { return nil }
func (ln *loopNet) Close() error              { return nil }

func directServer(t *testing.T, reg *obs.Registry) (*Server, *loopNet, []topology.NodeID) {
	t.Helper()
	lan := testLAN(t)
	ln := &loopNet{}
	s, err := NewServer(Config{
		LAN: lan, Transport: ln, Node: 0,
		MaxVCsPerTenant: 2, MaxGuaranteedPerTenant: 8,
		Incarnation: 1, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, ln, lan.Topology().Hosts()
}

// hello opens tenant's session (sessions are hello-first since leases)
// and clears the captured replies so test indexes start at the first
// real request.
func hello(t *testing.T, s *Server, ln *loopNet, from topology.NodeID, tenant uint64) {
	t.Helper()
	deliver(t, s, from, &proto.Message{Kind: proto.KindHello, Epoch: tenant, Initiator: 1 << 40})
	if got := ln.sent[len(ln.sent)-1]; got.Kind != proto.KindHello || !got.Accept {
		t.Fatalf("hello reply = %+v", got)
	}
	ln.sent = nil
}

func TestAdmissionQuotaAndIdempotency(t *testing.T) {
	reg := obs.NewRegistry(1)
	s, ln, hosts := directServer(t, reg)
	src, dst := hosts[0], hosts[1]
	hello(t, s, ln, 9, 42)
	req := func(nonce uint64, rate int32) *proto.Message {
		return &proto.Message{
			Kind: proto.KindVCRequest, Epoch: 42, Initiator: nonce, From: 1,
			Depth: rate, Links: []proto.LinkRec{{A: int32(src), B: int32(dst)}},
		}
	}

	deliver(t, s, 9, req(1, 4)) // guaranteed, admitted
	deliver(t, s, 9, req(2, 0)) // best-effort, admitted
	deliver(t, s, 9, req(3, 0)) // third VC: quota-vcs
	if len(ln.sent) != 3 {
		t.Fatalf("%d replies, want 3", len(ln.sent))
	}
	if !ln.sent[0].Accept || !ln.sent[1].Accept {
		t.Fatalf("first two requests should be admitted: %+v %+v", ln.sent[0], ln.sent[1])
	}
	if ln.sent[2].Accept || ln.sent[2].Depth != RefuseQuotaVCs {
		t.Fatalf("third VC not refused by quota: %+v", ln.sent[2])
	}

	// A duplicated datagram (same nonce) must be answered from the cache,
	// not re-executed: still exactly one VC granted under nonce 1.
	before := s.Stats().Requests
	deliver(t, s, 9, req(1, 4))
	st := s.Stats()
	if st.Requests != before {
		t.Fatal("duplicate nonce re-executed the request")
	}
	if st.Replays != 1 {
		t.Fatalf("Replays = %d, want 1", st.Replays)
	}
	if got := ln.sent[len(ln.sent)-1]; !got.Accept || got.Depth != ln.sent[0].Depth {
		t.Fatalf("replayed reply diverges: %+v vs %+v", got, ln.sent[0])
	}

	// Close the guaranteed VC (its reply Depth is the VCI), then the
	// slot frees up under the VC quota.
	deliver(t, s, 9, &proto.Message{
		Kind: proto.KindVCClose, Epoch: 42, Initiator: 4, From: 1, Depth: ln.sent[0].Depth,
	})
	deliver(t, s, 9, req(5, 0))
	if got := ln.sent[len(ln.sent)-1]; !got.Accept {
		t.Fatalf("post-close open refused: %+v", got)
	}

	if v := reg.Counter("svc_admitted_total", "class", "guaranteed").Value(); v != 1 {
		t.Fatalf("svc_admitted_total{guaranteed} = %d, want 1", v)
	}
	if v := reg.Counter("svc_refused_total", "reason", "quota-vcs").Value(); v != 1 {
		t.Fatalf("svc_refused_total{quota-vcs} = %d, want 1", v)
	}
}

func TestGuaranteedQuotaCellsAndCapacity(t *testing.T) {
	s, ln, hosts := directServer(t, nil)
	src, dst := hosts[0], hosts[1]
	hello(t, s, ln, 9, 1)
	// Tenant quota is 8 cells/frame: 6 + 4 exceeds it.
	deliver(t, s, 9, &proto.Message{
		Kind: proto.KindVCRequest, Epoch: 1, Initiator: 1, From: 1, Depth: 6,
		Links: []proto.LinkRec{{A: int32(src), B: int32(dst)}},
	})
	deliver(t, s, 9, &proto.Message{
		Kind: proto.KindVCRequest, Epoch: 1, Initiator: 2, From: 1, Depth: 4,
		Links: []proto.LinkRec{{A: int32(src), B: int32(dst)}},
	})
	if !ln.sent[0].Accept {
		t.Fatalf("first reservation refused: %+v", ln.sent[0])
	}
	if ln.sent[1].Accept || ln.sent[1].Depth != RefuseQuotaCells {
		t.Fatalf("over-quota reservation not refused with quota-cells: %+v", ln.sent[1])
	}

	// Distinct tenants together can exhaust the schedule: per-tenant
	// quota passes but bandwidth central runs out of headroom on the
	// bottleneck host link (capacity 32 cells/frame here). That refusal
	// must be RefuseCapacity, not a quota code.
	gotCapacity := false
	for tenantID := uint64(2); tenantID < 12 && !gotCapacity; tenantID++ {
		hello(t, s, ln, 9, tenantID)
		deliver(t, s, 9, &proto.Message{
			Kind: proto.KindVCRequest, Epoch: tenantID, Initiator: 1, From: 1, Depth: 8,
			Links: []proto.LinkRec{{A: int32(src), B: int32(dst)}},
		})
		rep := ln.sent[len(ln.sent)-1]
		if !rep.Accept {
			if rep.Depth != RefuseCapacity {
				t.Fatalf("schedule exhaustion refused with %s, want capacity",
					RefusalString(rep.Depth))
			}
			gotCapacity = true
		}
	}
	if !gotCapacity {
		t.Fatal("schedule never exhausted — capacity refusal path untested")
	}
}

func TestByeClosesEverything(t *testing.T) {
	s, ln, hosts := directServer(t, nil)
	src, dst := hosts[0], hosts[1]
	hello(t, s, ln, 9, 7)
	deliver(t, s, 9, &proto.Message{
		Kind: proto.KindVCRequest, Epoch: 7, Initiator: 1, From: 1, Depth: 4,
		Links: []proto.LinkRec{{A: int32(src), B: int32(dst)}},
	})
	deliver(t, s, 9, &proto.Message{
		Kind: proto.KindVCRequest, Epoch: 7, Initiator: 2, From: 1, Depth: 0,
		Links: []proto.LinkRec{{A: int32(src), B: int32(dst)}},
	})
	deliver(t, s, 9, &proto.Message{Kind: proto.KindBye, Epoch: 7, Initiator: 3, From: 1})
	if got := ln.sent[len(ln.sent)-1]; got.Kind != proto.KindBye || !got.Accept {
		t.Fatalf("bye reply = %+v", got)
	}
	if len(s.vcOwner) != 0 {
		t.Fatalf("%d VCs survive bye", len(s.vcOwner))
	}
	// The freed schedule capacity is reusable by another tenant.
	hello(t, s, ln, 9, 8)
	deliver(t, s, 9, &proto.Message{
		Kind: proto.KindVCRequest, Epoch: 8, Initiator: 1, From: 1, Depth: 4,
		Links: []proto.LinkRec{{A: int32(src), B: int32(dst)}},
	})
	if got := ln.sent[len(ln.sent)-1]; !got.Accept {
		t.Fatalf("post-bye reservation refused: %+v", got)
	}
}

func TestTrafficValidatesOwnership(t *testing.T) {
	s, ln, hosts := directServer(t, nil)
	src, dst := hosts[0], hosts[1]
	hello(t, s, ln, 9, 5)
	deliver(t, s, 9, &proto.Message{
		Kind: proto.KindVCRequest, Epoch: 5, Initiator: 1, From: 1, Depth: 0,
		Links: []proto.LinkRec{{A: int32(src), B: int32(dst)}},
	})
	vc := ln.sent[0].Depth
	// Owner sends traffic: queued.
	deliver(t, s, 9, &proto.Message{Kind: proto.KindTraffic, Epoch: 5, From: vc, Depth: 10})
	if s.Stats().TrafficCells == 0 {
		t.Fatal("owner's traffic not queued")
	}
	// Another tenant naming the same VCI: silently ignored.
	before := s.Stats().TrafficCells
	deliver(t, s, 9, &proto.Message{Kind: proto.KindTraffic, Epoch: 6, From: vc, Depth: 10})
	if s.Stats().TrafficCells != before {
		t.Fatal("foreign tenant injected traffic on someone else's VC")
	}
}

// A circuit nobody owns is nobody's: tenant id 0 must not read an absent
// owner as its own and drive traffic on an orphan inherited from a
// previous incarnation.
func TestTenantZeroCannotDriveOrphan(t *testing.T) {
	lan := testLAN(t)
	hosts := lan.Topology().Hosts()
	orphan, err := lan.OpenBestEffort(hosts[0], hosts[1])
	if err != nil {
		t.Fatal(err)
	}
	ln := &loopNet{}
	s, err := NewServer(Config{LAN: lan, Transport: ln, Node: 0, Incarnation: 1})
	if err != nil {
		t.Fatal(err)
	}
	hello(t, s, ln, 9, 0)
	deliver(t, s, 9, &proto.Message{Kind: proto.KindTraffic, Epoch: 0, From: int32(orphan), Depth: 10})
	if st := s.Stats(); st.TrafficCells != 0 || st.TrafficRefused != 0 {
		t.Fatalf("tenant 0 queued %d cells (%d refused) on orphan VC %d", st.TrafficCells, st.TrafficRefused, orphan)
	}
}

// The live gauges move with every served message, not only on idle ticks:
// ServeOne never ticks.
func TestLiveGaugesFollowServedMessages(t *testing.T) {
	reg := obs.NewRegistry(1)
	s, ln, hosts := directServer(t, reg)
	hello(t, s, ln, 9, 42)
	vc := openVC(t, s, ln, 9, 42, 1, hosts[0], hosts[1])
	if tn, vcs := reg.Gauge("svc_tenants").Value(), reg.Gauge("svc_vcs_open").Value(); tn != 1 || vcs != 1 {
		t.Fatalf("after hello+open: svc_tenants = %d, svc_vcs_open = %d, want 1 and 1", tn, vcs)
	}
	deliver(t, s, 9, &proto.Message{Kind: proto.KindVCClose, Epoch: 42, Initiator: 2, From: 1, Depth: vc})
	if vcs := reg.Gauge("svc_vcs_open").Value(); vcs != 0 {
		t.Fatalf("after close: svc_vcs_open = %d, want 0", vcs)
	}
}

// Cells a traffic frame cannot queue (past the burst cap, or refused by
// the LAN) are counted, never dropped silently: queued + refused is what
// the tenant offered.
func TestTrafficRefusedCounted(t *testing.T) {
	reg := obs.NewRegistry(1)
	s, ln, hosts := directServer(t, reg)
	hello(t, s, ln, 9, 5)
	vc := openVC(t, s, ln, 9, 5, 1, hosts[0], hosts[1])
	const offered = maxBurst + 10
	deliver(t, s, 9, &proto.Message{Kind: proto.KindTraffic, Epoch: 5, From: vc, Depth: offered})
	st := s.Stats()
	if st.TrafficCells != maxBurst || st.TrafficRefused != 10 {
		t.Fatalf("queued %d + refused %d cells of %d offered, want %d + 10",
			st.TrafficCells, st.TrafficRefused, offered, maxBurst)
	}
	if v := reg.Counter("svc_traffic_refused_cells_total").Value(); v != st.TrafficRefused {
		t.Fatalf("svc_traffic_refused_cells_total = %d, Stats.TrafficRefused = %d", v, st.TrafficRefused)
	}
}

// CheckInvariant is a real check: corrupting any one part of the books
// makes it fire.
func TestCheckInvariantCatchesCorruptBooks(t *testing.T) {
	for name, corrupt := range map[string]func(s *Server, vc cell.VCI){
		"gtd":           func(s *Server, _ cell.VCI) { s.tenants[42].gtd++ },
		"vcOwner":       func(s *Server, vc cell.VCI) { s.vcOwner[vc] = 7 },
		"stray owner":   func(s *Server, vc cell.VCI) { s.vcOwner[vc+100] = 42 },
		"orphan":        func(s *Server, vc cell.VCI) { s.orphans[vc] = time.Time{} },
		"closed in LAN": func(s *Server, vc cell.VCI) { _ = s.lan.Close(vc) },
		"nonce order":   func(s *Server, _ cell.VCI) { s.tenants[42].order = append(s.tenants[42].order, 9) },
		"mirror":        func(s *Server, _ cell.VCI) { s.nTenants.Add(1) },
	} {
		s, ln, hosts := directServer(t, nil)
		hello(t, s, ln, 9, 42)
		vc := cell.VCI(openVC(t, s, ln, 9, 42, 1, hosts[0], hosts[1]))
		corrupt(s, vc)
		if err := s.CheckInvariant(); err == nil {
			t.Errorf("%s: corrupt books pass CheckInvariant", name)
		}
	}
}

func TestJainFairness(t *testing.T) {
	if JainX1000([]int64{5, 5, 5, 5}) != 1000 {
		t.Fatal("equal shares must score 1000")
	}
	if got := JainX1000([]int64{20, 0, 0, 0}); got != 250 {
		t.Fatalf("single-winner score = %d, want 250 (1000/n)", got)
	}
	if JainX1000(nil) != 0 {
		t.Fatal("no samples must score 0")
	}
	if JainX1000([]int64{0, 0}) != 1000 {
		t.Fatal("all-zero is trivially equal")
	}
}

// The headline concurrency test: a real server over loopback UDP, many
// tenant clients on their own sockets hammering it concurrently (open /
// traffic / close / bye), under -race. Admissions must balance across
// identical tenants and every grant must be matched by the final state.
func TestConcurrentTenantsOverUDP(t *testing.T) {
	lan := testLAN(t)
	hosts := lan.Topology().Hosts()
	reg := obs.NewRegistry(1)

	serverTr, err := ctrlnet.NewUDP(ctrlnet.UDPConfig{
		Local: map[topology.NodeID]string{0: "127.0.0.1:0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer serverTr.Close()
	srv, err := NewServer(Config{
		LAN: lan, Transport: serverTr, Node: 0,
		MaxVCsPerTenant: 4, MaxGuaranteedPerTenant: 4,
		Tick: time.Millisecond, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	serverAddr := serverTr.Addr(0).String()
	const tenants = 8
	const flowsPerTenant = 25
	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			self := topology.NodeID(1000 + i)
			tr, err := ctrlnet.NewUDP(ctrlnet.UDPConfig{
				Local: map[topology.NodeID]string{self: "127.0.0.1:0"},
				Peers: map[topology.NodeID]string{0: serverAddr},
			})
			if err != nil {
				errs <- err
				return
			}
			defer tr.Close()
			cl, err := NewClient(ClientConfig{
				Transport: tr, Self: self, Server: 0, Tenant: uint64(i + 1),
				Timeout: 500 * time.Millisecond, Retries: 6,
			})
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			if _, err := cl.Hello(); err != nil {
				errs <- fmt.Errorf("tenant %d hello: %w", i, err)
				return
			}
			src := hosts[i%len(hosts)]
			dst := hosts[(i+1)%len(hosts)]
			for f := 0; f < flowsPerTenant; f++ {
				rate := 0
				if f%4 == 0 {
					rate = 1
				}
				vc, err := cl.Open(src, dst, rate)
				var ref *Refused
				if errors.As(err, &ref) {
					continue // refusal is a valid answer under contention
				}
				if err != nil {
					errs <- fmt.Errorf("tenant %d open: %w", i, err)
					return
				}
				if err := cl.Traffic(vc, 8); err != nil {
					errs <- err
					return
				}
				if err := cl.CloseVC(vc); err != nil {
					errs <- fmt.Errorf("tenant %d close vc %d: %w", i, vc, err)
					return
				}
			}
			if err := cl.Bye(); err != nil {
				errs <- fmt.Errorf("tenant %d bye: %w", i, err)
				return
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	srv.Stop()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}

	st := srv.Stats()
	if st.Requests != tenants*flowsPerTenant {
		t.Fatalf("requests = %d, want %d (nonce dedup leak?)", st.Requests, tenants*flowsPerTenant)
	}
	if st.AdmittedBE == 0 {
		t.Fatal("no best-effort admissions")
	}
	if len(srv.vcOwner) != 0 {
		t.Fatalf("%d VCs leak after all tenants said bye", len(srv.vcOwner))
	}
	// Identical tenants must be admitted near-equally.
	if fair := JainX1000(srv.AdmissionCounts()); fair < 900 {
		t.Fatalf("fairness %d/1000 across identical tenants", fair)
	}
	if v := reg.Counter("svc_requests_total", "class", "best-effort").Value() +
		reg.Counter("svc_requests_total", "class", "guaranteed").Value(); v != st.Requests {
		t.Fatalf("obs requests %d != stats %d", v, st.Requests)
	}
}
