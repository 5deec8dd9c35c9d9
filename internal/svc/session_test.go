package svc

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cell"
	"repro/internal/proto"
	"repro/internal/topology"
)

// The session machine on a virtual clock: every case drives Call, Reply
// and Expire by hand, so each deadline and frame is exact.

const sessTimeout = 40 * time.Millisecond

var t0 = time.Unix(1000, 0)

func newTestSession(retries int, seed int64) *Session {
	return NewSession(ClientConfig{Tenant: 7, Timeout: sessTimeout, Retries: retries},
		rand.New(rand.NewSource(seed)))
}

// sent decodes a frame the session asked to send.
func sent(t *testing.T, st Step) *proto.Message {
	t.Helper()
	if st.Send == nil {
		t.Fatalf("step sends nothing: %+v", st)
	}
	m, err := proto.Unmarshal(st.Send)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// answer encodes the server's reply to req.
func answer(t *testing.T, req *proto.Message, rep proto.Message) []byte {
	t.Helper()
	rep.Epoch, rep.Initiator = req.Epoch, req.Initiator
	if rep.Kind == 0 {
		rep.Kind = proto.KindVCReply
	}
	wire, err := proto.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// openAt opens a circuit the server grants as vc, at incarnation 1.
func openAt(t *testing.T, s *Session, vc cell.VCI) {
	t.Helper()
	st := s.Call(t0, Op{Kind: proto.KindVCRequest, Src: 1, Dst: topology.NodeID(vc), Rate: 1}, 0)
	st = s.Reply(t0, answer(t, sent(t, st), proto.Message{From: 1, Accept: true, Depth: int32(vc)}))
	if !st.Done || st.Err != nil {
		t.Fatalf("open %d: %+v", vc, st)
	}
}

func TestSessionMachine(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"attempt 0 waits exactly Timeout", func(t *testing.T) {
			s := newTestSession(4, 1)
			st := s.Call(t0, Op{Kind: proto.KindHello}, 0)
			first := sent(t, st)
			if st.Deadline != t0.Add(sessTimeout) {
				t.Fatalf("deadline %v after the call, want exactly Timeout", st.Deadline.Sub(t0))
			}
			if early := s.Expire(st.Deadline.Add(-time.Nanosecond)); early.Send != nil || early.Done {
				t.Fatalf("expired before the deadline: %+v", early)
			}
			if again := sent(t, s.Expire(st.Deadline)); again.Initiator != first.Initiator {
				t.Fatalf("retransmission under nonce %d, want %d", again.Initiator, first.Initiator)
			}
			if got := s.Stats().Retransmits; got != 1 {
				t.Fatalf("Retransmits = %d, want 1", got)
			}
		}},
		{"retries run out with ErrRPCTimeout", func(t *testing.T) {
			s := newTestSession(3, 1)
			st := s.Call(t0, Op{Kind: proto.KindLease}, 0)
			for sends := 1; !st.Done; sends++ {
				if sends > 3 {
					t.Fatal("more than Retries transmissions")
				}
				st = s.Expire(st.Deadline)
			}
			if !errors.Is(st.Err, ErrRPCTimeout) || st.Send != nil {
				t.Fatalf("exhausted call ended with %+v, want ErrRPCTimeout", st)
			}
		}},
		{"an overload refusal resends the same nonce after a backoff", func(t *testing.T) {
			s := newTestSession(4, 1)
			req := sent(t, s.Call(t0, Op{Kind: proto.KindVCRequest, Src: 1, Dst: 2}, 0))
			now := t0.Add(time.Millisecond)
			st := s.Reply(now, answer(t, req, proto.Message{From: 1, Depth: RefuseOverloaded}))
			if st.Send != nil || st.Done {
				t.Fatalf("overload refusal answered the call: %+v", st)
			}
			if wait := st.Deadline.Sub(now); wait < sessTimeout/2 || wait > 2*sessTimeout {
				t.Fatalf("overload backoff %v outside [Timeout/2, 2·Timeout]", wait)
			}
			if again := sent(t, s.Expire(st.Deadline)); again.Initiator != req.Initiator {
				t.Fatalf("resent under nonce %d, want %d", again.Initiator, req.Initiator)
			}
		}},
		{"a stale refusal mid-op re-attaches, then retries under the new incarnation", func(t *testing.T) {
			s := newTestSession(4, 1)
			for _, vc := range []cell.VCI{5, 2, 9} {
				openAt(t, s, vc)
			}
			st := s.Call(t0, Op{Kind: proto.KindVCClose, VC: 9}, 0)
			st = s.Reply(t0, answer(t, sent(t, st), proto.Message{From: 2, Depth: RefuseStaleSession}))
			hello := sent(t, st)
			if hello.Kind != proto.KindHello {
				t.Fatalf("stale refusal answered with %v, want hello", hello.Kind)
			}
			st = s.Reply(t0, answer(t, hello, proto.Message{Kind: proto.KindHello, From: 2, Accept: true}))
			for i, user := range []cell.VCI{2, 5, 9} { // ascending user VCI
				reopen := sent(t, st)
				if reopen.Kind != proto.KindVCRequest || reopen.From != 2 ||
					reopen.Links[0].B != int32(user) {
					t.Fatalf("reopen %d = %+v, want circuit %d at incarnation 2", i, reopen, user)
				}
				st = s.Reply(t0, answer(t, reopen, proto.Message{From: 2, Accept: true, Depth: int32(100 + user)}))
			}
			retry := sent(t, st)
			if retry.Kind != proto.KindVCClose || retry.From != 2 || retry.Depth != 109 {
				t.Fatalf("retried close = %+v, want server VCI 109 at incarnation 2", retry)
			}
			st = s.Reply(t0, answer(t, retry, proto.Message{From: 2, Accept: true, Depth: 109}))
			if !st.Done || st.Err != nil {
				t.Fatalf("close did not complete: %+v", st)
			}
			if got := s.Stats(); got.Reattaches != 1 || got.ReattachVCs != 3 {
				t.Fatalf("stats %+v, want 1 re-attach reopening 3 circuits", got)
			}
			if got := s.Circuits(); len(got) != 2 || got[0] != 2 || got[1] != 5 {
				t.Fatalf("ledger %v after closing 9, want [2 5]", got)
			}
		}},
		{"a reopen the new incarnation refuses drops that circuit", func(t *testing.T) {
			s := newTestSession(4, 1)
			openAt(t, s, 3)
			st := s.Call(t0, Op{Kind: proto.KindLease}, 0)
			st = s.Reply(t0, answer(t, sent(t, st), proto.Message{From: 2, Depth: RefuseStaleSession}))
			st = s.Reply(t0, answer(t, sent(t, st), proto.Message{Kind: proto.KindHello, From: 2, Accept: true}))
			st = s.Reply(t0, answer(t, sent(t, st), proto.Message{From: 2, Depth: RefuseCapacity}))
			lease := sent(t, st)
			if lease.Kind != proto.KindLease {
				t.Fatalf("after the refused reopen the session sent %v, want the lease retry", lease.Kind)
			}
			st = s.Reply(t0, answer(t, lease, proto.Message{Kind: proto.KindLease, From: 2, Accept: true}))
			if !st.Done || st.Err != nil {
				t.Fatalf("lease did not complete: %+v", st)
			}
			if got := s.Stats(); got.ReattachFailedVCs != 1 || len(s.Circuits()) != 0 {
				t.Fatalf("refused reopen kept: stats %+v, ledger %v", got, s.Circuits())
			}
		}},
		{"a bye refused as stale counts as success", func(t *testing.T) {
			s := newTestSession(4, 1)
			openAt(t, s, 4)
			st := s.Call(t0, Op{Kind: proto.KindBye}, 0)
			st = s.Reply(t0, answer(t, sent(t, st), proto.Message{From: 2, Depth: RefuseStaleSession}))
			if !st.Done || st.Err != nil || st.Send != nil {
				t.Fatalf("stale bye = %+v, want success without re-attach", st)
			}
			if len(s.Circuits()) != 0 || s.Stats().Reattaches != 0 {
				t.Fatal("bye left the ledger or re-attached")
			}
		}},
		{"the same seed gives byte-identical sends", func(t *testing.T) {
			run := func(seed int64) [][]byte {
				s := newTestSession(8, seed)
				var out [][]byte
				for st := s.Call(t0, Op{Kind: proto.KindHello}, 0xABC); !st.Done; st = s.Expire(st.Deadline) {
					out = append(out, st.Send)
				}
				return out
			}
			a, b, other := run(42), run(42), run(43)
			if len(a) != 8 || len(b) != len(a) {
				t.Fatalf("%d and %d sends, want 8 each", len(a), len(b))
			}
			differs := false
			for i := range a {
				if !bytes.Equal(a[i], b[i]) {
					t.Fatalf("send %d differs under the same seed", i)
				}
				differs = differs || !bytes.Equal(a[i], other[i])
			}
			if !differs {
				t.Fatal("another seed sent the same bytes: jitter is not in the frames")
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}

// Backoff: attempt 0 waits exactly Timeout; jittered attempts stay inside
// [Timeout/2, min(RetryCap, Timeout·2^i)]; NoJitter is fixed-pace.
func TestBackoffJitterBounds(t *testing.T) {
	cfg := ClientConfig{Timeout: 100 * time.Millisecond, RetryCap: 800 * time.Millisecond}
	s := NewSession(cfg, rand.New(rand.NewSource(1)))
	if got := s.backoff(0); got != cfg.Timeout {
		t.Fatalf("attempt 0 wait = %v, want %v", got, cfg.Timeout)
	}
	for attempt := 1; attempt <= 8; attempt++ {
		hi := cfg.RetryCap
		if shifted := cfg.Timeout << uint(attempt); shifted < hi {
			hi = shifted
		}
		lo := cfg.Timeout / 2
		sawSpread := map[time.Duration]bool{}
		for i := 0; i < 200; i++ {
			d := s.backoff(attempt)
			if d < lo || d > hi {
				t.Fatalf("attempt %d wait %v outside [%v, %v]", attempt, d, lo, hi)
			}
			sawSpread[d] = true
		}
		if len(sawSpread) < 2 {
			t.Fatalf("attempt %d: no jitter (every draw %v)", attempt, s.backoff(attempt))
		}
	}
	cfg.NoJitter = true
	s = NewSession(cfg, rand.New(rand.NewSource(1)))
	for attempt := 0; attempt < 6; attempt++ {
		if got := s.backoff(attempt); got != cfg.Timeout {
			t.Fatalf("NoJitter attempt %d wait = %v, want fixed %v", attempt, got, cfg.Timeout)
		}
	}
}
