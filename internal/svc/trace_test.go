package svc

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ctrlnet"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/topology"
)

// memEnd is one side of an in-memory duplex Waiter transport: Send
// enqueues on the peer, Wait blocks like the UDP transport. The peer is
// swappable so a test can "restart the server" — point the client at a
// fresh incarnation's endpoint — without touching the client.
type memEnd struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []ctrlnet.Delivery
	peer   *memEnd
	closed bool
}

func newMemEnd() *memEnd {
	e := &memEnd{}
	e.cond = sync.NewCond(&e.mu)
	return e
}

func connect(a, b *memEnd) {
	a.mu.Lock()
	a.peer = b
	a.mu.Unlock()
	b.mu.Lock()
	b.peer = a
	b.mu.Unlock()
}

func (e *memEnd) Send(from, to topology.NodeID, wire []byte, atUS int64) ([]ctrlnet.Delivery, error) {
	e.mu.Lock()
	p := e.peer
	e.mu.Unlock()
	if p == nil {
		return nil, nil // server dead: datagrams vanish, like UDP
	}
	d := ctrlnet.Delivery{From: from, To: to,
		Wire: append([]byte(nil), wire...), RecvUS: time.Now().UnixMicro()}
	p.mu.Lock()
	if !p.closed {
		p.q = append(p.q, d)
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	return nil, nil
}

func (e *memEnd) Wait(d time.Duration) []ctrlnet.Delivery {
	deadline := time.Now().Add(d)
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(e.q) == 0 && !e.closed {
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil
		}
		t := time.AfterFunc(remain, func() {
			e.mu.Lock()
			e.cond.Broadcast()
			e.mu.Unlock()
		})
		e.cond.Wait()
		t.Stop()
	}
	out := e.q
	e.q = nil
	return out
}

func (e *memEnd) Poll() []ctrlnet.Delivery  { return nil }
func (e *memEnd) Flush() []ctrlnet.Delivery { return nil }
func (e *memEnd) Close() error {
	e.mu.Lock()
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
	return nil
}

// spans decodes everything a SpanWriter flushed into buf.
func spans(t *testing.T, sw *obs.SpanWriter, buf *bytes.Buffer) []obs.Event {
	t.Helper()
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

func byKind(evs []obs.Event, kind string) []obs.Event {
	var out []obs.Event
	for _, ev := range evs {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// One logical operation keeps ONE trace id across a server restart: the
// stale-session refusal, the re-attach (hello + ledger replay), and the
// final retry all carry the trace the op started with — the property that
// lets an2trace -merge show a restart as one causal timeline. The server
// side must stamp its refusal span with the same trace.
func TestOpTraceSharedAcrossReattach(t *testing.T) {
	lan := testLAN(t)
	hosts := lan.Topology().Hosts()

	clientEnd := newMemEnd()
	startServer := func(incarn int32, sw *obs.SpanWriter) (*Server, chan error) {
		end := newMemEnd()
		connect(clientEnd, end)
		s, err := NewServer(Config{
			LAN: lan, Transport: end, Node: 0,
			MaxVCsPerTenant: 8, MaxGuaranteedPerTenant: 8,
			Incarnation: incarn, Tick: time.Millisecond,
			OrphanGrace: time.Hour, // adoption must not race the test
			Spans:       sw, SpanSeed: uint64(incarn) * 1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() { errc <- s.Serve() }()
		return s, errc
	}

	s1, err1 := startServer(1, nil)
	var srvBuf bytes.Buffer
	srvSW := obs.NewSpanWriter(&srvBuf)

	var cliBuf bytes.Buffer
	cliSW := obs.NewSpanWriter(&cliBuf)
	cl, err := NewClient(ClientConfig{
		Transport: clientEnd, Self: 100, Server: 0, Tenant: 7,
		Timeout: 100 * time.Millisecond, Retries: 6, Seed: 1,
		Spans: cliSW, SpanSeed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	vc, err := cl.Open(hosts[0], hosts[1], 1)
	if err != nil {
		t.Fatal(err)
	}

	// "Kill" incarnation 1 and boot incarnation 2 over the same LAN.
	s1.Stop()
	if err := <-err1; err != nil {
		t.Fatal(err)
	}
	s2, err2 := startServer(2, srvSW)

	// The close must survive the restart transparently: stale refusal →
	// re-attach → retry against incarnation 2.
	if err := cl.CloseVC(vc); err != nil {
		t.Fatalf("close across restart: %v", err)
	}
	if got := cl.Stats().Reattaches; got != 1 {
		t.Fatalf("Reattaches = %d, want 1", got)
	}
	s2.Stop()
	if err := <-err2; err != nil {
		t.Fatal(err)
	}

	evs := spans(t, cliSW, &cliBuf)
	ops := byKind(evs, obs.KindSvcOp)
	if len(ops) != 3 { // hello, open, close
		t.Fatalf("%d svc-op spans, want 3: %+v", len(ops), ops)
	}
	seen := map[uint64]bool{}
	for _, op := range ops {
		if op.Trace == 0 || op.Span == 0 {
			t.Fatalf("op span missing ids: %+v", op)
		}
		if seen[op.Trace] {
			t.Fatalf("two ops share trace %x", op.Trace)
		}
		seen[op.Trace] = true
	}
	closeOp := ops[2]

	// Everything the restart forced — stale refusal, re-attach, final
	// accept — happened under the close op's single trace.
	var staleRecv, okRecv int
	for _, ev := range byKind(evs, obs.KindSvcRecv) {
		if ev.Trace != closeOp.Trace {
			continue
		}
		switch ev.Seq {
		case RefuseStaleSession:
			staleRecv++
		case 0:
			okRecv++
		}
	}
	if staleRecv == 0 {
		t.Fatal("no stale-session recv span under the close op's trace")
	}
	// Hello + reopen + retried close all answered under the same trace.
	if okRecv < 3 {
		t.Fatalf("%d accepted recv spans under the close trace, want >= 3", okRecv)
	}
	reatt := byKind(evs, obs.KindSvcReattach)
	if len(reatt) != 1 || reatt[0].Trace != closeOp.Trace || reatt[0].Parent != closeOp.Span {
		t.Fatalf("re-attach span not under the close op: %+v", reatt)
	}
	if reatt[0].Seq != 1 {
		t.Fatalf("re-attach replayed %d VCs, want 1", reatt[0].Seq)
	}
	sends := byKind(evs, obs.KindSvcSend)
	for _, ev := range sends {
		if !seen[ev.Trace] {
			t.Fatalf("send span %+v outside every op trace", ev)
		}
	}

	// Incarnation 2's spans: the stale refusal carries the client's trace
	// and incarnation stamp.
	sevs := spans(t, srvSW, &srvBuf)
	var refusals []obs.Event
	for _, ev := range byKind(sevs, obs.KindSvcRefuse) {
		if ev.Seq == RefuseStaleSession {
			refusals = append(refusals, ev)
		}
	}
	if len(refusals) == 0 {
		t.Fatal("server emitted no stale-session refusal span")
	}
	for _, ev := range refusals {
		if ev.Trace != closeOp.Trace || ev.Node != 2 {
			t.Fatalf("refusal span mis-stamped: %+v (want trace %x, incarnation 2)", ev, closeOp.Trace)
		}
	}
	if len(byKind(sevs, obs.KindSvcHandle)) == 0 {
		t.Fatal("server emitted no handle spans")
	}
}

// With trace stamping on, the retransmit clock is untouched: the first
// retry fires at exactly Timeout (attempt 0's wait takes no jitter), and
// the backoff span records that wait.
func TestTracedBackoffFirstRetryAtTimeout(t *testing.T) {
	// A dead-end transport: sends vanish, replies never come.
	clientEnd := newMemEnd()
	var cliBuf bytes.Buffer
	sw := obs.NewSpanWriter(&cliBuf)
	const timeout = 80 * time.Millisecond
	cl, err := NewClient(ClientConfig{
		Transport: clientEnd, Self: 1, Server: 0, Tenant: 3,
		Timeout: timeout, Retries: 2, Seed: 1,
		Spans: sw, SpanSeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Hello(); err == nil {
		t.Fatal("hello succeeded with no server")
	}
	evs := spans(t, sw, &cliBuf)
	sends := byKind(evs, obs.KindSvcSend)
	if len(sends) != 2 {
		t.Fatalf("%d send spans, want 2 (original + one retry)", len(sends))
	}
	if sends[0].Trace != sends[1].Trace {
		t.Fatal("retry changed trace id")
	}
	if sends[0].Span == sends[1].Span {
		t.Fatal("retry reused the attempt span id")
	}
	gap := time.Duration(sends[1].WallUS-sends[0].WallUS) * time.Microsecond
	// Exactly Timeout up to scheduling slop; meaningfully early or a
	// jittered wait would both be bugs.
	if gap < timeout || gap > timeout+60*time.Millisecond {
		t.Fatalf("first retry after %v, want exactly %v (+slop)", gap, timeout)
	}
	backs := byKind(evs, obs.KindSvcBackoff)
	if len(backs) != 2 {
		t.Fatalf("%d backoff spans, want 2 (both waits expired)", len(backs))
	}
	if d := time.Duration(backs[0].Dur) * time.Microsecond; d < timeout || d > timeout+60*time.Millisecond {
		t.Fatalf("first backoff span Dur = %v, want ~%v", d, timeout)
	}
	ops := byKind(evs, obs.KindSvcOp)
	if len(ops) != 1 || ops[0].Seq != 2 {
		t.Fatalf("op span = %+v, want one op with Seq (attempts) = 2", ops)
	}
}

// Tracing disabled must add NOTHING to the request hot path: the
// open+close handle pair costs exactly what it cost before the tracing
// layer existed (9 allocations, measured on the pre-tracing tree with
// this exact probe).
func TestRequestHotPathAllocsUnchanged(t *testing.T) {
	if avg := hotPathAllocs(t, Config{}, false); avg > 9.0 {
		t.Fatalf("open+close handle pair = %.2f allocs, want <= 9 (the pre-tracing baseline)", avg)
	}
}

// Fully traced (span writer, flight recorder, traced frames), the pair
// still costs the untraced 9: the six server spans it emits are encoded
// into the writer's buffer and copied into the ring's slots.
func TestTracedHotPathAllocsUnchanged(t *testing.T) {
	cfg := Config{Spans: obs.NewSpanWriter(io.Discard), Ring: obs.NewRing(1024), SpanSeed: 1}
	if avg := hotPathAllocs(t, cfg, true); avg > 9.0 {
		t.Fatalf("traced open+close handle pair = %.2f allocs, want <= 9 (the untraced pair)", avg)
	}
}

// hotPathAllocs drives open+close pairs straight into a server built
// from cfg's tracing sinks and returns the allocations per pair; traced
// frames carry a trace context.
func hotPathAllocs(t *testing.T, cfg Config, traced bool) float64 {
	t.Helper()
	g, err := topology.Torus(3, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AttachHosts(g, 2, 1); err != nil {
		t.Fatal(err)
	}
	lan, err := core.New(core.Config{Topology: g, FrameSlots: 128, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	net, err := ctrlnet.New(ctrlnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.LAN, cfg.Transport, cfg.Node, cfg.Incarnation = lan, net, 0, 7
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	hello, _ := proto.Marshal(&proto.Message{Kind: proto.KindHello, Epoch: 1, Initiator: 1, VTimeUS: time.Now().UnixMicro()})
	srv.ServeOne(ctrlnet.Delivery{From: 100, To: 0, Wire: hello})
	nonce := uint64(2)
	return testing.AllocsPerRun(2000, func() {
		nonce++
		req := proto.Message{
			Kind: proto.KindVCRequest, Epoch: 1, Initiator: nonce, From: 7,
			VTimeUS: time.Now().UnixMicro(),
			Links:   []proto.LinkRec{{A: int32(hosts[0]), B: int32(hosts[1])}},
		}
		cls := proto.Message{
			Kind: proto.KindVCClose, Epoch: 1, Initiator: nonce + 1_000_000, From: 7,
			VTimeUS: time.Now().UnixMicro(), Depth: int32(1),
		}
		if traced {
			req.TraceID, req.Span = nonce, 2*nonce+1
			cls.TraceID, cls.Span = nonce, 2*nonce+2
		}
		wire, _ := proto.Marshal(&req)
		srv.ServeOne(ctrlnet.Delivery{From: 100, To: 0, Wire: wire})
		wire, _ = proto.Marshal(&cls)
		srv.ServeOne(ctrlnet.Delivery{From: 100, To: 0, Wire: wire})
	})
}

// Entering drain and crossing the refusal-rate threshold each dump the
// flight recorder to DumpPath.<trigger>, and the dump decodes as JSONL.
func TestRecorderDumpTriggers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "recorder.jsonl")
	reg := obs.NewRegistry(1)
	lan := testLAN(t)
	ln := &loopNet{}
	s, err := NewServer(Config{
		LAN: lan, Transport: ln, Node: 0,
		Incarnation: 1, Obs: reg,
		Ring: obs.NewRing(64), DumpPath: path, RefusalRateTrigger: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Traced requests from a session the server does not know: each is a
	// stale-session refusal, each lands in the ring.
	for i := uint64(1); i <= 3; i++ {
		wire, err := proto.Marshal(&proto.Message{
			Kind: proto.KindVCRequest, Epoch: 9, Initiator: i, From: 99,
			TraceID: 0x1000 + i, Span: 0x2000 + i,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.ServeOne(ctrlnet.Delivery{From: 5, To: 0, Wire: wire})
	}
	// The third refusal crossed RefusalRateTrigger=2 inside one second.
	rrPath := path + ".refusal-rate"
	evs := readDump(t, rrPath)
	if len(evs) == 0 {
		t.Fatalf("refusal-rate dump %s is empty", rrPath)
	}
	var sawRefuse bool
	for _, ev := range evs {
		if ev.Kind == obs.KindSvcRefuse && ev.Seq == RefuseStaleSession {
			sawRefuse = true
		}
	}
	if !sawRefuse {
		t.Fatal("dump holds no stale-session refusal span")
	}

	s.Drain(true)
	drainEvs := readDump(t, path+".drain")
	var sawDump bool
	for _, ev := range drainEvs {
		if ev.Kind == obs.KindSvcDump && ev.Seq == DumpRefusalRate {
			sawDump = true // the earlier trigger's own span is in the ring
		}
	}
	if !sawDump {
		t.Fatal("drain dump does not include the earlier svc-dump span")
	}
	if v := reg.Counter("svc_recorder_dumps_total").Value(); v != 2 {
		t.Fatalf("svc_recorder_dumps_total = %d, want 2", v)
	}
	// Re-entering drain while already draining must not dump again.
	s.Drain(true)
	if v := reg.Counter("svc_recorder_dumps_total").Value(); v != 2 {
		t.Fatalf("idempotent Drain dumped again: %d", v)
	}
}

func readDump(t *testing.T, path string) []obs.Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// answerNet is an in-memory responder: every request is answered on the
// spot with an accepting vc-reply for VCI 1, queued for the next Wait.
type answerNet struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    []ctrlnet.Delivery
	sent int
}

func newAnswerNet() *answerNet {
	a := &answerNet{}
	a.cond = sync.NewCond(&a.mu)
	return a
}

func (a *answerNet) Send(from, to topology.NodeID, wire []byte, _ int64) ([]ctrlnet.Delivery, error) {
	m, _, err := proto.DecodeHeader(wire)
	if err != nil {
		return nil, err
	}
	rep, err := proto.Marshal(&proto.Message{Kind: proto.KindVCReply, Epoch: m.Epoch,
		Initiator: m.Initiator, From: 1, Accept: true, Depth: 1})
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	a.sent++
	a.q = append(a.q, ctrlnet.Delivery{From: to, To: from, Wire: rep})
	a.cond.Broadcast()
	a.mu.Unlock()
	return nil, nil
}

func (a *answerNet) Wait(d time.Duration) []ctrlnet.Delivery {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.q) == 0 {
		t := time.AfterFunc(d, func() {
			a.mu.Lock()
			a.cond.Broadcast()
			a.mu.Unlock()
		})
		a.cond.Wait()
		t.Stop()
	}
	q := a.q
	a.q = nil
	return q
}

func (a *answerNet) Poll() []ctrlnet.Delivery  { return nil }
func (a *answerNet) Flush() []ctrlnet.Delivery { return nil }
func (a *answerNet) Close() error              { return nil }

// The client's untraced hot path: an Open+CloseVC pair over an in-memory
// responder, every allocation counted (the responder's own included). The
// ceiling is what the pair cost before the client became a shell over the
// session machine (25, measured with this exact probe; 10 after): no
// timer, channel or goroutine hand-off came back, and tracing off adds
// nothing. Each call sends exactly one frame.
func TestClientTracingDisabledAddsNoAllocs(t *testing.T) {
	net := newAnswerNet()
	cl, err := NewClient(ClientConfig{Transport: net, Self: 1, Server: 0, Tenant: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	avg := testing.AllocsPerRun(2000, func() {
		vc, err := cl.Open(1, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.CloseVC(vc); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 25 {
		t.Fatalf("untraced open+close = %.2f allocs, want <= 25", avg)
	}
	// AllocsPerRun makes one warm-up call of the function on top of its runs.
	if net.sent != 2*2001 || cl.Stats().OrphanReplies != 0 {
		t.Fatalf("%d frames for 2001 open+close pairs, %d orphan replies: want one frame per call",
			net.sent, cl.Stats().OrphanReplies)
	}
}

// A transport closed under a waiting call ends it at once with
// ctrlnet.ErrClosed, not at its deadline; a closed client fails every
// later call with ErrClientDone.
func TestClientClosedEndsCall(t *testing.T) {
	end := newMemEnd()
	cl, err := NewClient(ClientConfig{Transport: end, Self: 1, Server: 0, Tenant: 1, Timeout: time.Hour, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(20*time.Millisecond, func() { end.Close() })
	start := time.Now()
	if _, err := cl.Hello(); !errors.Is(err, ctrlnet.ErrClosed) {
		t.Fatalf("hello over a closed transport: %v, want ctrlnet.ErrClosed", err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("call sat out %v after its transport closed", waited)
	}
	cl.Close()
	if _, err := cl.Hello(); !errors.Is(err, ErrClientDone) {
		t.Fatalf("call on a closed client: %v, want ErrClientDone", err)
	}
}

// Calls on one client from several goroutines are serialized: each still
// sends exactly one frame and reads its own reply, with Stats read
// alongside.
func TestClientCallsSerialize(t *testing.T) {
	net := newAnswerNet()
	cl, err := NewClient(ClientConfig{Transport: net, Self: 1, Server: 0, Tenant: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				vc, err := cl.Open(1, 2, 0)
				if err == nil {
					err = cl.CloseVC(vc)
				}
				if err != nil {
					t.Error(err)
					return
				}
				_ = cl.Stats()
			}
		}()
	}
	wg.Wait()
	if net.sent != 4*50*2 || cl.Stats().OrphanReplies != 0 {
		t.Fatalf("%d frames and %d orphan replies for 200 serialized pairs, want 400 and 0",
			net.sent, cl.Stats().OrphanReplies)
	}
}
