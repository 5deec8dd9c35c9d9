package svcsys

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ctrlnet"
	"repro/internal/proto"
	"repro/internal/svc"
	"repro/internal/topology"
)

func newSystem(t *testing.T) *System {
	t.Helper()
	g, err := topology.Torus(3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AttachHosts(g, 1, 1); err != nil {
		t.Fatal(err)
	}
	lan, err := core.New(core.Config{Topology: g, FrameSlots: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(svc.Config{LAN: lan, Incarnation: 1}, ctrlnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// join adds a session that waits 10 ms per attempt, 3 attempts a call,
// and returns its tenant index.
func join(s *System, tenant uint64) int {
	s.Join(svc.NewSession(svc.ClientConfig{Tenant: tenant, Timeout: 10 * time.Millisecond, Retries: 3},
		rand.New(rand.NewSource(int64(tenant)))))
	return len(s.sessions) - 1
}

func idle(int) {}

// A call's step reaches the driver right after the act that made it; the
// request is served in step 1 of the next tick and its reply reaches the
// session in step 2 of that same tick; the LAN advances StepSlots slots per
// tick.
func TestTickOrder(t *testing.T) {
	s := newSystem(t)
	i := join(s, 1)
	var got []string
	step := func(j int, st svc.Step) bool {
		if j != i || st.Err != nil {
			t.Fatalf("tenant %d step %+v", j, st)
		}
		got = append(got, fmt.Sprintf("%d ms: sent %t, done %t", s.NowMS(), st.Send != nil, st.Done))
		return true
	}
	act := func(j int) {
		if s.NowMS() == 0 {
			s.Call(j, svc.Op{Kind: proto.KindHello}, 0)
			got = append(got, "called")
		}
	}
	for range 3 {
		if !s.Tick(step, act) {
			t.Fatal("tick cut short")
		}
	}
	want := []string{"called", "0 ms: sent true, done false", "1 ms: sent false, done true"}
	if !slices.Equal(got, want) {
		t.Fatalf("steps %q, want %q", got, want)
	}
	if slot := s.lan.Snapshot().Slot; slot != 3*StepSlots {
		t.Fatalf("LAN at slot %d after 3 ticks, want %d", slot, 3*StepSlots)
	}
}

// Datagrams to a killed server vanish, and the system times the call out;
// a restart is the next incarnation, and a session that knew the old one
// re-attaches to it.
func TestKillRestart(t *testing.T) {
	s := newSystem(t)
	i := join(s, 1)
	var last svc.Step
	step := func(_ int, st svc.Step) bool { last = st; return true }
	call := func(k proto.Kind) {
		act := func(j int) { s.Call(j, svc.Op{Kind: k}, 0) }
		for last = (svc.Step{}); !last.Done; act = idle {
			s.Tick(step, act)
		}
	}
	call(proto.KindHello)
	if last.Err != nil {
		t.Fatalf("hello: %v", last.Err)
	}
	s.Kill()
	call(proto.KindLease)
	if !errors.Is(last.Err, svc.ErrRPCTimeout) {
		t.Fatalf("lease to a dead server: %v, want a timeout", last.Err)
	}
	if err := s.Restart(); err != nil {
		t.Fatal(err)
	}
	if got := s.Server().Incarnation(); got != 2 {
		t.Fatalf("restart is incarnation %d, want 2", got)
	}
	call(proto.KindLease)
	if last.Err != nil {
		t.Fatalf("lease after restart: %v", last.Err)
	}
	if st := s.sessions[i].Stats(); st.Reattaches != 1 || st.Retransmits != 2 {
		t.Fatalf("re-attaches %d, retransmits %d; want 1 and 2 (the lease to the dead server)", st.Reattaches, st.Retransmits)
	}
}

// A host that left hears nothing and takes no action.
func TestLeave(t *testing.T) {
	s := newSystem(t)
	a, b := join(s, 1), join(s, 2)
	var heard []string
	step := func(j int, st svc.Step) bool {
		heard = append(heard, fmt.Sprintf("%d done %t", j, st.Done))
		return true
	}
	s.Tick(step, func(j int) { s.Call(j, svc.Op{Kind: proto.KindHello}, 0) })
	s.Leave(a)
	heard = nil
	s.Tick(step, func(j int) { heard = append(heard, fmt.Sprintf("%d acts", j)) })
	if want := []string{fmt.Sprintf("%d done true", b), fmt.Sprintf("%d acts", b)}; !slices.Equal(heard, want) {
		t.Fatalf("events %q, want %q", heard, want)
	}
}

// A call that finishes at once reaches the driver through Tick like any
// other, so no driver can lose it.
func TestCallFinishedAtOnceReachesDriver(t *testing.T) {
	s := newSystem(t)
	join(s, 1)
	var done []error
	step := func(_ int, st svc.Step) bool {
		if st.Done {
			done = append(done, st.Err)
		}
		return true
	}
	act := func(j int) {
		if s.NowMS() == 0 { // a kind no frame can carry: the call fails to encode
			s.Call(j, svc.Op{Kind: proto.Kind(255)}, 0)
		}
	}
	s.Tick(step, act)
	if len(done) != 1 || !errors.Is(done[0], proto.ErrKind) {
		t.Fatalf("finished calls %v, want one proto.ErrKind in the tick that made it", done)
	}
}
