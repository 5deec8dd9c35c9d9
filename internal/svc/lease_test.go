package svc

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ctrlnet"
	"repro/internal/proto"
	"repro/internal/topology"
)

// clockServer is directServer with an injectable clock, for lease and
// orphan-grace tests that must not sleep.
func clockServer(t *testing.T, lan *core.LAN, now *time.Time) (*Server, *loopNet) {
	t.Helper()
	ln := &loopNet{}
	s, err := NewServer(Config{
		LAN: lan, Transport: ln, Node: 0,
		MaxVCsPerTenant: 4, MaxGuaranteedPerTenant: 8,
		Incarnation: 1,
		LeaseDur:    time.Second,
		OrphanGrace: time.Second,
		Now:         func() time.Time { return *now },
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, ln
}

func openVC(t *testing.T, s *Server, ln *loopNet, from topology.NodeID, tenant, nonce uint64, src, dst topology.NodeID) int32 {
	t.Helper()
	deliver(t, s, from, &proto.Message{
		Kind: proto.KindVCRequest, Epoch: tenant, Initiator: nonce, From: 1,
		Links: []proto.LinkRec{{A: int32(src), B: int32(dst)}},
	})
	rep := ln.sent[len(ln.sent)-1]
	if !rep.Accept {
		t.Fatalf("open refused: %+v", rep)
	}
	return rep.Depth
}

// The nonce cache is a FIFO window of exactly nonceCacheSize entries:
// filling it past the brim evicts the oldest nonce and nothing else.
func TestNonceCacheEvictionWindow(t *testing.T) {
	s, ln, _ := directServer(t, nil)
	hello(t, s, ln, 9, 42)
	for i := 0; i < nonceCacheSize+10; i++ {
		deliver(t, s, 9, &proto.Message{
			Kind: proto.KindLease, Epoch: 42, Initiator: uint64(1 + i), From: 1,
		})
	}
	tn := s.tenants[42]
	if len(tn.replies) != nonceCacheSize || len(tn.order) != nonceCacheSize {
		t.Fatalf("cache holds %d replies / %d order entries, want %d",
			len(tn.replies), len(tn.order), nonceCacheSize)
	}
	// Oldest 10 lease nonces (and the hello before them) are gone; the
	// newest survives.
	if _, ok := tn.replies[1]; ok {
		t.Fatal("oldest nonce not evicted")
	}
	if _, ok := tn.replies[uint64(nonceCacheSize+10)]; !ok {
		t.Fatal("newest nonce missing from cache")
	}
}

// A duplicate nonce inside the window is answered from the cache — same
// reply bytes, no re-execution — and stays idempotent however often it
// is retried.
func TestNonceCacheDuplicateIdempotence(t *testing.T) {
	s, ln, hosts := directServer(t, nil)
	hello(t, s, ln, 9, 42)
	vc := openVC(t, s, ln, 9, 42, 1, hosts[0], hosts[1])
	before := s.Stats()
	for i := 0; i < 3; i++ {
		deliver(t, s, 9, &proto.Message{
			Kind: proto.KindVCRequest, Epoch: 42, Initiator: 1, From: 1,
			Links: []proto.LinkRec{{A: int32(hosts[0]), B: int32(hosts[1])}},
		})
		rep := ln.sent[len(ln.sent)-1]
		if !rep.Accept || rep.Depth != vc {
			t.Fatalf("replay %d diverged: %+v (want VCI %d)", i, rep, vc)
		}
	}
	st := s.Stats()
	if st.Requests != before.Requests {
		t.Fatal("duplicate nonce re-executed the request")
	}
	if st.Replays != before.Replays+3 {
		t.Fatalf("Replays = %d, want %d", st.Replays, before.Replays+3)
	}
}

// A retransmit that arrives AFTER its nonce slid out of the window is a
// fresh request: re-executed, not replayed. This is the documented
// cost of a bounded cache — the client bounds its retries well inside
// the window, and this test pins the behavior at the boundary.
func TestNonceCacheRetransmitAfterEvictionReexecutes(t *testing.T) {
	s, ln, hosts := directServer(t, nil)
	hello(t, s, ln, 9, 42)
	firstVC := openVC(t, s, ln, 9, 42, 1, hosts[0], hosts[1])

	// Slide the window: nonceCacheSize fresh lease nonces evict nonce 1.
	for i := 0; i < nonceCacheSize; i++ {
		deliver(t, s, 9, &proto.Message{
			Kind: proto.KindLease, Epoch: 42, Initiator: uint64(1000 + i), From: 1,
		})
	}
	before := s.Stats()
	deliver(t, s, 9, &proto.Message{
		Kind: proto.KindVCRequest, Epoch: 42, Initiator: 1, From: 1,
		Links: []proto.LinkRec{{A: int32(hosts[0]), B: int32(hosts[1])}},
	})
	st := s.Stats()
	if st.Replays != before.Replays {
		t.Fatal("evicted nonce was still replayed")
	}
	if st.Requests != before.Requests+1 {
		t.Fatal("evicted nonce was not re-executed")
	}
	rep := ln.sent[len(ln.sent)-1]
	if !rep.Accept {
		t.Fatalf("re-executed request refused: %+v", rep)
	}
	if rep.Depth == firstVC {
		t.Fatalf("re-execution returned the old VCI %d — a replay in disguise", firstVC)
	}
}

// An expired lease garbage-collects the whole session: circuits closed,
// quota freed, tenant forgotten — and a later request from that tenant
// gets the stale-session refusal that triggers re-attach.
func TestLeaseExpiryCollectsTenant(t *testing.T) {
	lan := testLAN(t)
	now := time.Unix(1000, 0)
	s, ln := clockServer(t, lan, &now)
	hosts := lan.Topology().Hosts()
	hello(t, s, ln, 9, 42)
	openVC(t, s, ln, 9, 42, 1, hosts[0], hosts[1])
	openVC(t, s, ln, 9, 42, 2, hosts[1], hosts[2])
	if got := len(lan.Circuits()); got != 2 {
		t.Fatalf("%d circuits open, want 2", got)
	}

	// Renewal by activity: just under expiry, traffic pushes it out.
	now = now.Add(900 * time.Millisecond)
	s.Sweep()
	if _, ok := s.tenants[42]; !ok {
		t.Fatal("live lease collected early")
	}

	now = now.Add(1100 * time.Millisecond)
	s.Sweep()
	if _, ok := s.tenants[42]; ok {
		t.Fatal("expired lease not collected")
	}
	if got := len(lan.Circuits()); got != 0 {
		t.Fatalf("%d circuits survive lease GC, want 0", got)
	}
	st := s.Stats()
	if st.LeaseExpired != 1 || st.LeaseGCVCs != 2 {
		t.Fatalf("LeaseExpired/LeaseGCVCs = %d/%d, want 1/2", st.LeaseExpired, st.LeaseGCVCs)
	}
	// The zombie's next request: typed stale refusal, not silence.
	deliver(t, s, 9, &proto.Message{
		Kind: proto.KindVCRequest, Epoch: 42, Initiator: 3, From: 1,
		Links: []proto.LinkRec{{A: int32(hosts[0]), B: int32(hosts[1])}},
	})
	rep := ln.sent[len(ln.sent)-1]
	if rep.Accept || rep.Depth != RefuseStaleSession {
		t.Fatalf("post-GC request not refused stale: %+v", rep)
	}
}

// A request stamped with a dead incarnation is refused stale even when
// the session id happens to exist on the new server.
func TestStaleIncarnationRefused(t *testing.T) {
	s, ln, hosts := directServer(t, nil)
	hello(t, s, ln, 9, 42)
	deliver(t, s, 9, &proto.Message{
		Kind: proto.KindVCRequest, Epoch: 42, Initiator: 5, From: 99,
		Links: []proto.LinkRec{{A: int32(hosts[0]), B: int32(hosts[1])}},
	})
	rep := ln.sent[len(ln.sent)-1]
	if rep.Accept || rep.Depth != RefuseStaleSession {
		t.Fatalf("wrong-incarnation request not refused stale: %+v", rep)
	}
	if rep.From != 1 {
		t.Fatalf("stale refusal carries incarnation %d, want 1 (so the client can learn it)", rep.From)
	}
}

// Circuits inherited from a dead incarnation are adopted as orphans and
// reclaimed once their grace passes — unless their owner re-attaches and
// re-opens first (which replaces them; the old instances still die).
func TestOrphanAdoptionAndReclaim(t *testing.T) {
	lan := testLAN(t)
	now := time.Unix(2000, 0)
	s1, ln1 := clockServer(t, lan, &now)
	hosts := lan.Topology().Hosts()
	hello(t, s1, ln1, 9, 42)
	openVC(t, s1, ln1, 9, 42, 1, hosts[0], hosts[1])
	openVC(t, s1, ln1, 9, 42, 2, hosts[1], hosts[2])

	// "Crash": build a new incarnation over the same LAN. The circuits the
	// dead server programmed are still there; the new one must adopt them.
	ln2 := &loopNet{}
	s2, err := NewServer(Config{
		LAN: lan, Transport: ln2, Node: 0,
		MaxVCsPerTenant: 4, MaxGuaranteedPerTenant: 8,
		Incarnation: 2,
		LeaseDur:    time.Second,
		OrphanGrace: time.Second,
		Now:         func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.OrphanVCs(); got != 2 {
		t.Fatalf("adopted %d orphans, want 2", got)
	}
	if st := s2.Stats(); st.OrphansAdopted != 2 {
		t.Fatalf("OrphansAdopted = %d, want 2", st.OrphansAdopted)
	}

	now = now.Add(1100 * time.Millisecond)
	s2.Sweep()
	if got := s2.OrphanVCs(); got != 0 {
		t.Fatalf("%d orphans survive their grace, want 0", got)
	}
	if got := len(lan.Circuits()); got != 0 {
		t.Fatalf("%d circuits survive orphan reclaim, want 0", got)
	}
	if st := s2.Stats(); st.OrphansReclaimed != 2 {
		t.Fatalf("OrphansReclaimed = %d, want 2", st.OrphansReclaimed)
	}
	if !s2.Quiesced() {
		t.Fatal("server not quiesced after reclaim")
	}
}

// Drain refuses NEW circuits (uncached, so the same nonce succeeds once
// drain lifts) while closes and byes still complete; the wire toggle
// flips it without a session.
func TestDrainRefusesNewCircuitsOnly(t *testing.T) {
	s, ln, hosts := directServer(t, nil)
	hello(t, s, ln, 9, 42)
	vc := openVC(t, s, ln, 9, 42, 1, hosts[0], hosts[1])

	// Wire toggle on.
	deliver(t, s, 7, &proto.Message{Kind: proto.KindDrain, Epoch: 0, Initiator: 1, Depth: 1})
	if ack := ln.sent[len(ln.sent)-1]; ack.Kind != proto.KindDrain || ack.Depth != 1 {
		t.Fatalf("drain ack = %+v", ack)
	}
	if !s.Draining() {
		t.Fatal("wire drain toggle ignored")
	}

	deliver(t, s, 9, &proto.Message{
		Kind: proto.KindVCRequest, Epoch: 42, Initiator: 2, From: 1,
		Links: []proto.LinkRec{{A: int32(hosts[0]), B: int32(hosts[1])}},
	})
	if rep := ln.sent[len(ln.sent)-1]; rep.Accept || rep.Depth != RefuseDraining {
		t.Fatalf("draining server admitted a new circuit: %+v", rep)
	}
	// Close still works: drain lets sessions wind down.
	deliver(t, s, 9, &proto.Message{Kind: proto.KindVCClose, Epoch: 42, Initiator: 3, From: 1, Depth: vc})
	if rep := ln.sent[len(ln.sent)-1]; !rep.Accept {
		t.Fatalf("draining server refused a close: %+v", rep)
	}

	// Toggle off: the SAME nonce gets a fresh decision (weather refusals
	// are uncached) and is admitted.
	deliver(t, s, 7, &proto.Message{Kind: proto.KindDrain, Epoch: 0, Initiator: 4, Depth: 0})
	deliver(t, s, 9, &proto.Message{
		Kind: proto.KindVCRequest, Epoch: 42, Initiator: 2, From: 1,
		Links: []proto.LinkRec{{A: int32(hosts[0]), B: int32(hosts[1])}},
	})
	if rep := ln.sent[len(ln.sent)-1]; !rep.Accept {
		t.Fatalf("post-drain retry of the refused nonce not admitted: %+v", rep)
	}
	if st := s.Stats(); st.RefusedBy[RefuseDraining] != 1 {
		t.Fatalf("RefusedBy[draining] = %d, want 1", st.RefusedBy[RefuseDraining])
	}
}

// Overload shedding: a vc-request with more than shedWatermark frames
// behind it in one receive batch gets RefuseOverloaded (uncached — a
// backoff signal) while the shallow tail of the batch is served.
func TestShedOverWatermark(t *testing.T) {
	s, ln, hosts := directServer(t, nil)
	hello(t, s, ln, 9, 42)

	mk := func(kind proto.Kind, nonce uint64) ctrlnet.Delivery {
		m := &proto.Message{Kind: kind, Epoch: 42, Initiator: nonce, From: 1}
		if kind == proto.KindVCRequest {
			m.Links = []proto.LinkRec{{A: int32(hosts[0]), B: int32(hosts[1])}}
		}
		wire, err := proto.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return ctrlnet.Delivery{From: 9, To: 0, Wire: wire}
	}
	// Request 1 stands behind shedWatermark+1 frames, request 2 behind one.
	batch := []ctrlnet.Delivery{mk(proto.KindVCRequest, 1)}
	for i := 0; i < shedWatermark; i++ {
		batch = append(batch, mk(proto.KindLease, uint64(100+i)))
	}
	batch = append(batch, mk(proto.KindVCRequest, 2), mk(proto.KindLease, 99))
	s.ServeBatch(batch)
	if len(ln.sent) != len(batch) {
		t.Fatalf("%d replies, want %d", len(ln.sent), len(batch))
	}
	if rep := ln.sent[0]; rep.Accept || rep.Depth != RefuseOverloaded {
		t.Fatalf("deep-backlog request not shed: %+v", rep)
	}
	if rep := ln.sent[len(batch)-2]; !rep.Accept {
		t.Fatalf("shallow-backlog request not served: %+v", rep)
	}
	if st := s.Stats(); st.Shed != 1 || st.LeaseRenewals != shedWatermark+1 {
		t.Fatalf("Shed = %d, LeaseRenewals = %d: want 1 and %d (leases are never shed)",
			st.Shed, st.LeaseRenewals, shedWatermark+1)
	}
	// Weather is uncached: the shed nonce retried alone is admitted.
	deliver(t, s, 9, &proto.Message{Kind: proto.KindVCRequest, Epoch: 42, Initiator: 1, From: 1,
		Links: []proto.LinkRec{{A: int32(hosts[0]), B: int32(hosts[1])}}})
	if rep := ln.sent[len(ln.sent)-1]; !rep.Accept {
		t.Fatalf("retry of the shed nonce not admitted: %+v", rep)
	}
}

// feedNet is a Waiter transport whose deliveries the test injects by
// hand: Wait hands over whatever was fed, or sits out its timeout.
type feedNet struct {
	mu sync.Mutex
	q  []ctrlnet.Delivery
}

func (f *feedNet) Send(from, to topology.NodeID, wire []byte, atUS int64) ([]ctrlnet.Delivery, error) {
	return nil, nil
}
func (f *feedNet) Poll() []ctrlnet.Delivery  { return nil }
func (f *feedNet) Flush() []ctrlnet.Delivery { return nil }
func (f *feedNet) Close() error              { return nil }
func (f *feedNet) Wait(d time.Duration) []ctrlnet.Delivery {
	f.mu.Lock()
	q := f.q
	f.q = nil
	f.mu.Unlock()
	if q == nil {
		time.Sleep(d)
	}
	return q
}
func (f *feedNet) feed(wire []byte) {
	f.mu.Lock()
	f.q = append(f.q, ctrlnet.Delivery{From: 0, To: 1, Wire: wire})
	f.mu.Unlock()
}

// Replies nobody is waiting for — undecodable datagrams and late
// duplicates whose nonce already resolved — are counted, not dropped
// silently; replies for another tenant sharing the endpoint are not. The
// client has no reader of its own, so it counts them while a call waits.
func TestClientOrphanReplyCounting(t *testing.T) {
	fn := &feedNet{}
	cl, err := NewClient(ClientConfig{
		Transport: fn, Self: 1, Server: 0, Tenant: 7,
		Timeout: 10 * time.Millisecond, Retries: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	fn.feed([]byte("not a proto frame"))
	for _, m := range []*proto.Message{
		{Kind: proto.KindVCReply, Epoch: 7, Initiator: 999, From: 1, Accept: true}, // late duplicate
		{Kind: proto.KindVCReply, Epoch: 8, Initiator: 1, From: 1, Accept: true},   // another tenant
	} {
		wire, err := proto.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		fn.feed(wire)
	}
	if got := cl.Stats().OrphanReplies; got != 0 {
		t.Fatalf("OrphanReplies = %d before any call read them", got)
	}
	// The lease is never answered: it times out after reading the batch.
	if err := cl.Lease(); !errors.Is(err, ErrRPCTimeout) {
		t.Fatalf("unanswered lease: %v, want ErrRPCTimeout", err)
	}
	if got := cl.Stats().OrphanReplies; got != 2 {
		t.Fatalf("OrphanReplies = %d, want 2 (garbage + late dup; other-tenant reply excluded)", got)
	}
}
