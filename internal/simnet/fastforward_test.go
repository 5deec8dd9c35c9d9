package simnet

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/cell"
	"repro/internal/obs"
	"repro/internal/switchnode"
	"repro/internal/topology"
)

// cbrNet builds a 6-switch line with two opposing guaranteed CBR circuits
// (4 and 2 cells per 16-slot frame). This is the canonical steady phase
// fast-forward targets: pure rate-matched traffic, no best-effort, no
// pending host queues.
func cbrNet(t *testing.T, cfg Config) (*Network, topology.NodeID, topology.NodeID) {
	t.Helper()
	if cfg.Switch.N == 0 {
		cfg.Switch = switchnode.Config{
			N:          8,
			Discipline: switchnode.DisciplinePerVC,
			FrameSlots: 16,
			Seed:       99,
		}
	}
	n, h0, h1, path := lineNet(t, 6, 1, cfg)
	rev := make([]topology.NodeID, len(path))
	for i, id := range path {
		rev[len(path)-1-i] = id
	}
	if _, err := n.OpenGuaranteed(10, path, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := n.OpenGuaranteed(11, rev, 2); err != nil {
		t.Fatal(err)
	}
	for _, vc := range []cell.VCI{10, 11} {
		if err := n.SetCBR(vc, 0x47); err != nil {
			t.Fatal(err)
		}
	}
	return n, h0, h1
}

// ffObservables is everything the exactness tests compare between a
// slot-by-slot run and a fast-forwarded one.
type ffObservables struct {
	slot  int64
	net   NetStats
	h0    HostStats
	h1    HostStats
	snap  Snapshot
	util  map[topology.LinkID]float64
	byVC  map[cell.VCI]int64
	packs [2]int
}

func observe(n *Network, h0, h1 topology.NodeID) ffObservables {
	s0, _ := n.HostStats(h0)
	s1, _ := n.HostStats(h1)
	return ffObservables{
		slot: n.Slot(),
		net:  n.Stats(),
		h0:   *s0,
		h1:   *s1,
		snap: n.Snapshot(),
		util: n.LinkUtilization(),
		byVC: map[cell.VCI]int64{10: n.DeliveredByVC(10), 11: n.DeliveredByVC(11)},
		packs: [2]int{
			len(n.Packets(h0)),
			len(n.Packets(h1)),
		},
	}
}

// requireFFEqual compares two observable sets field by field, excluding
// the documented approximation (reassembled packet payloads are not
// materialized for skipped slots, so packet *counts* in stats must match
// but Packets() lengths are compared only when wantPackets is set).
func requireFFEqual(t *testing.T, want, got ffObservables, wantPackets bool, ctx string) {
	t.Helper()
	if want.slot != got.slot {
		t.Fatalf("%s: slot %d vs %d", ctx, want.slot, got.slot)
	}
	if want.net != got.net {
		t.Fatalf("%s: net stats diverged: %+v vs %+v", ctx, want.net, got.net)
	}
	if !reflect.DeepEqual(want.h0, got.h0) {
		t.Fatalf("%s: h0 stats diverged:\nrun: %+v\n ff: %+v", ctx, want.h0, got.h0)
	}
	if !reflect.DeepEqual(want.h1, got.h1) {
		t.Fatalf("%s: h1 stats diverged:\nrun: %+v\n ff: %+v", ctx, want.h1, got.h1)
	}
	if want.snap != got.snap {
		t.Fatalf("%s: snapshot diverged: %+v vs %+v", ctx, want.snap, got.snap)
	}
	if !reflect.DeepEqual(want.util, got.util) {
		t.Fatalf("%s: link utilization diverged", ctx)
	}
	if !reflect.DeepEqual(want.byVC, got.byVC) {
		t.Fatalf("%s: per-VC delivered diverged: %v vs %v", ctx, want.byVC, got.byVC)
	}
	if wantPackets && want.packs != got.packs {
		t.Fatalf("%s: packet counts diverged: %v vs %v", ctx, want.packs, got.packs)
	}
}

// TestFastForwardExactCBR: fast-forwarding a pure-CBR phase must land on
// byte-identical observables — counters, per-VC delivered cells, host
// stats including every latency histogram sample, snapshot accounting —
// as stepping every slot, and must actually skip most of the span.
func TestFastForwardExactCBR(t *testing.T) {
	a, ah0, ah1 := cbrNet(t, Config{})
	a.Run(2000)
	b, bh0, bh1 := cbrNet(t, Config{})
	skipped := b.FastForward(2000)
	if skipped == 0 {
		t.Fatal("steady CBR phase never fast-forwarded")
	}
	if skipped < 1000 {
		t.Errorf("only %d of 2000 slots skipped — steady detection too weak", skipped)
	}
	requireFFEqual(t, observe(a, ah0, ah1), observe(b, bh0, bh1), false,
		"run vs fastforward")
	// Continuing slot-by-slot from the fast-forwarded state must stay
	// exact: the resumed simulation is indistinguishable.
	a.Run(100)
	b.Run(100)
	requireFFEqual(t, observe(a, ah0, ah1), observe(b, bh0, bh1), false,
		"post-resume run")
}

// TestFastForwardUnderSteadyFault: a dead link mid-path makes every cell
// crossing it drop — a steady *faulty* state is periodic too, and
// fast-forward must replicate the drops exactly.
func TestFastForwardUnderSteadyFault(t *testing.T) {
	kill := func(n *Network) {
		link, ok := n.Topology().LinkBetween(2, 3)
		if !ok {
			t.Fatal("no mid-path link")
		}
		n.KillLink(link.ID)
	}
	a, ah0, ah1 := cbrNet(t, Config{})
	a.Run(100)
	kill(a)
	a.Run(1500)
	b, bh0, bh1 := cbrNet(t, Config{})
	b.Run(100)
	kill(b)
	skipped := b.FastForward(1500)
	if skipped == 0 {
		t.Fatal("steady faulty phase never fast-forwarded")
	}
	ao := observe(a, ah0, ah1)
	if ao.net.DroppedInFlight == 0 {
		t.Fatal("fault scenario dropped nothing — not exercising the drop path")
	}
	requireFFEqual(t, ao, observe(b, bh0, bh1), false, "faulty run vs fastforward")
}

// TestFastForwardObsExact: the obs registry view (sharded counters,
// bucketed latency histograms) after a fast-forwarded run must equal the
// slot-by-slot run's — ObserveN replication is sample-exact.
func TestFastForwardObsExact(t *testing.T) {
	regA := obs.NewRegistry(4)
	a, ah0, ah1 := cbrNet(t, Config{Obs: regA})
	a.Run(2000)
	regB := obs.NewRegistry(4)
	b, bh0, bh1 := cbrNet(t, Config{Obs: regB})
	if skipped := b.FastForward(2000); skipped == 0 {
		t.Fatal("steady CBR phase never fast-forwarded")
	}
	requireFFEqual(t, observe(a, ah0, ah1), observe(b, bh0, bh1), false, "obs run")
	for _, name := range []string{"inject", "deliver"} {
		ca := regA.Counter("net_cells_total", "kind", name).Value()
		cb := regB.Counter("net_cells_total", "kind", name).Value()
		if ca != cb {
			t.Errorf("counter %s: run %d vs ff %d", name, ca, cb)
		}
	}
	for _, class := range []string{"best-effort", "guaranteed"} {
		ha := regA.Histogram("net_latency_slots", "class", class)
		hb := regB.Histogram("net_latency_slots", "class", class)
		if ha.Count() != hb.Count() || ha.Sum() != hb.Sum() {
			t.Errorf("histogram %s: count/sum diverged: %d/%d vs %d/%d",
				class, ha.Count(), ha.Sum(), hb.Count(), hb.Sum())
		}
		if !reflect.DeepEqual(ha.Buckets(), hb.Buckets()) {
			t.Errorf("histogram %s: buckets diverged", class)
		}
	}
}

// TestFastForwardTracerDisablesSkip: with a Tracer configured no slot may
// be skipped (traces are not synthesized analytically), and the result is
// the plain Run trajectory, trace included.
func TestFastForwardTracerDisablesSkip(t *testing.T) {
	trA := &CollectTracer{}
	a, ah0, ah1 := cbrNet(t, Config{Tracer: trA})
	a.Run(500)
	trB := &CollectTracer{}
	b, bh0, bh1 := cbrNet(t, Config{Tracer: trB})
	if skipped := b.FastForward(500); skipped != 0 {
		t.Fatalf("skipped %d slots with a Tracer configured", skipped)
	}
	requireFFEqual(t, observe(a, ah0, ah1), observe(b, bh0, bh1), true, "traced run")
	if !reflect.DeepEqual(trA.Events, trB.Events) {
		t.Fatal("trace diverged")
	}
}

// TestFastForwardBestEffortDrainThenIdle: best-effort traffic is not
// periodic, so FastForward simulates every slot while it drains — but once
// the fabric is empty the idle tail is steady (all-zero deltas) and skips.
// Results, including reassembled packets, must match plain Run exactly.
func TestFastForwardBestEffortDrainThenIdle(t *testing.T) {
	mk := func() (*Network, topology.NodeID, topology.NodeID) {
		n, h0, h1, path := lineNet(t, 4, 1, Config{
			Switch:        switchnode.Config{N: 8, FrameSlots: 16, Seed: 99},
			IngressWindow: 8,
		})
		if _, err := n.OpenBestEffort(1, path); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if err := n.SendPacket(1, []byte{byte(i), 0xBE, 0xEF}); err != nil {
				t.Fatal(err)
			}
		}
		return n, h0, h1
	}
	a, ah0, ah1 := mk()
	a.Run(300)
	b, bh0, bh1 := mk()
	skipped := b.FastForward(300)
	if skipped == 0 {
		t.Fatal("idle tail after the best-effort drain never fast-forwarded")
	}
	ao := observe(a, ah0, ah1)
	if ao.packs[1] == 0 {
		t.Fatal("no packets delivered — drain phase not exercised")
	}
	requireFFEqual(t, ao, observe(b, bh0, bh1), true, "best-effort run")
}

// TestSetCBRValidation: SetCBR demands an existing guaranteed circuit.
func TestSetCBRValidation(t *testing.T) {
	n, _, _, path := lineNet(t, 3, 1, Config{
		Switch:        switchnode.Config{N: 8, FrameSlots: 16},
		IngressWindow: 8,
	})
	if err := n.SetCBR(42, 0); !errors.Is(err, ErrNoCircuit) {
		t.Fatalf("unknown vc err = %v, want ErrNoCircuit", err)
	}
	if _, err := n.OpenBestEffort(1, path); err != nil {
		t.Fatal(err)
	}
	if err := n.SetCBR(1, 0); !errors.Is(err, ErrNotGuaranteed) {
		t.Fatalf("best-effort vc err = %v, want ErrNotGuaranteed", err)
	}
	if _, err := n.OpenGuaranteed(10, path, 2); err != nil {
		t.Fatal(err)
	}
	if err := n.SetCBR(10, 0x11); err != nil {
		t.Fatalf("guaranteed vc err = %v", err)
	}
}
