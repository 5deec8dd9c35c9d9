package reconfig

import (
	"testing"

	"repro/internal/ctrlnet"
	"repro/internal/topology"
)

// The whole reconfiguration protocol over real sockets: every switch gets
// its own loopback UDP port and every invite/ack/report/distribute
// crosses the kernel as a datagram. Loopback is near-reliable, so the run
// must converge like the zero-fault in-memory channel — this pins the
// transport abstraction end to end (envelope round-trip, peer routing,
// Poll interleaving, Flush-as-quiescence) on the most demanding consumer
// the repo has.
func TestReconfigOverUDPLoopback(t *testing.T) {
	g, err := topology.Torus(3, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	local := make(map[topology.NodeID]string)
	for _, s := range r.LiveSwitches() {
		local[s] = "127.0.0.1:0"
	}
	tr, err := ctrlnet.NewUDP(ctrlnet.UDPConfig{Local: local})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	ur, err := r.RunOver([]Trigger{{Node: r.LiveSwitches()[0]}}, nil, tr, Hardening{})
	if err != nil {
		t.Fatal(err)
	}
	if !ur.Converged {
		t.Fatal("run over loopback UDP did not converge")
	}
	if len(ur.Views) != len(local) {
		t.Fatalf("%d views, want %d", len(ur.Views), len(local))
	}
	want := r.ExpectedLinks()
	for id, v := range ur.Views {
		if !equalRecs(v.Links, want) {
			t.Fatalf("switch %d links diverge from expected topology", id)
		}
	}
	sent, recvd, rejects := tr.Counts()
	if sent == 0 || recvd == 0 {
		t.Fatalf("no datagrams crossed the socket (sent=%d recvd=%d)", sent, recvd)
	}
	if rejects != 0 {
		t.Fatalf("%d envelope rejects on a clean loopback run", rejects)
	}
	// A socket transport keeps no fault-decision counters; the result must
	// report a zero Stats rather than fabricate one.
	if ur.Channel != (ctrlnet.Stats{}) {
		t.Fatalf("channel stats fabricated for socket transport: %+v", ur.Channel)
	}
}
