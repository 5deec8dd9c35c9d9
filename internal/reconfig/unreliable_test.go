package reconfig

import (
	"testing"

	"repro/internal/ctrlnet"
	"repro/internal/topology"
)

func torus33(t *testing.T) *topology.Graph {
	t.Helper()
	g, err := topology.Torus(3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// chaosFaults is the acceptance-criteria fault mix: 20% loss plus
// duplication and reordering (and a little corruption to exercise the CRC
// path).
func chaosFaults(seed int64) ctrlnet.Config {
	return ctrlnet.Config{
		DropProb:    0.20,
		DupProb:     0.10,
		ReorderProb: 0.10,
		CorruptProb: 0.05,
		DelayProb:   0.10,
		Seed:        seed,
	}
}

// faulty builds the seeded in-memory fault injector for one run.
func faulty(t *testing.T, cfg ctrlnet.Config) *ctrlnet.Net {
	t.Helper()
	chn, err := ctrlnet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return chn
}

func TestUnreliableConvergesUnderChaosMix(t *testing.T) {
	g := torus33(t)
	r, err := New(Config{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	want := r.ExpectedLinks()
	for seed := int64(0); seed < 25; seed++ {
		ur, err := r.RunOver([]Trigger{{Node: 0}}, nil, faulty(t, chaosFaults(seed)), Hardening{})
		if err != nil {
			t.Fatal(err)
		}
		if !ur.Converged {
			t.Fatalf("seed %d: no convergence under 20%% loss + dup + reorder (retx=%d retrig=%d)",
				seed, ur.Retransmits, ur.Retriggers)
		}
		if len(ur.Views) != 9 {
			t.Fatalf("seed %d: only %d/9 switches completed", seed, len(ur.Views))
		}
		for n, v := range ur.Views {
			if !equalRecs(v.Links, want) {
				t.Fatalf("seed %d: switch %d learned wrong topology", seed, n)
			}
		}
	}
}

func TestUnreliableConcurrentTriggersUnderLoss(t *testing.T) {
	g := torus33(t)
	r, err := New(Config{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		ur, err := r.RunOver(
			[]Trigger{{Node: 0}, {Node: 8, AtUS: 3}}, nil,
			faulty(t, chaosFaults(1000+seed)), Hardening{})
		if err != nil {
			t.Fatal(err)
		}
		if !ur.Converged {
			t.Fatalf("seed %d: concurrent triggers did not converge", seed)
		}
	}
}

func TestUnreliableDeterministicReplay(t *testing.T) {
	g := torus33(t)
	r, err := New(Config{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	run := func() *UnreliableResult {
		ur, err := r.RunOver([]Trigger{{Node: 4}}, nil, faulty(t, chaosFaults(7)), Hardening{})
		if err != nil {
			t.Fatal(err)
		}
		return ur
	}
	a, b := run(), run()
	if a.Channel != b.Channel {
		t.Fatalf("channel stats diverged: %+v vs %+v", a.Channel, b.Channel)
	}
	if a.Messages != b.Messages || a.Bytes != b.Bytes || a.MaxCompletionUS != b.MaxCompletionUS ||
		a.Retransmits != b.Retransmits || a.Retriggers != b.Retriggers || a.CRCRejects != b.CRCRejects {
		t.Fatalf("results diverged:\n%+v\n%+v", a, b)
	}
	for n, v := range a.Views {
		w := b.Views[n]
		if w == nil || v.Tag != w.Tag || v.CompletedAtUS != w.CompletedAtUS {
			t.Fatalf("switch %d view diverged: %+v vs %+v", n, v, w)
		}
	}
}

func TestUnreliableRetransmitsUnderLoss(t *testing.T) {
	g := torus33(t)
	r, err := New(Config{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	var retx int64
	for seed := int64(0); seed < 5; seed++ {
		ur, err := r.RunOver([]Trigger{{Node: 0}}, nil,
			faulty(t, ctrlnet.Config{DropProb: 0.3, Seed: seed}), Hardening{})
		if err != nil {
			t.Fatal(err)
		}
		if !ur.Converged {
			t.Fatalf("seed %d: did not converge at 30%% loss", seed)
		}
		retx += ur.Retransmits
	}
	if retx == 0 {
		t.Fatal("30% loss across 5 runs never retransmitted — retransmission is dead code")
	}
}

func TestUnreliableCorruptionCountsCRCRejects(t *testing.T) {
	g := torus33(t)
	r, err := New(Config{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	ur, err := r.RunOver([]Trigger{{Node: 0}}, nil,
		faulty(t, ctrlnet.Config{CorruptProb: 0.25, Seed: 3}), Hardening{})
	if err != nil {
		t.Fatal(err)
	}
	if !ur.Converged {
		t.Fatal("did not converge under corruption")
	}
	if ur.CRCRejects == 0 || ur.Channel.Corrupted == 0 {
		t.Fatalf("corruption not observed: crcRejects=%d corrupted=%d", ur.CRCRejects, ur.Channel.Corrupted)
	}
	if ur.CRCRejects != ur.Channel.Corrupted {
		t.Fatalf("every corrupted image must be CRC-rejected: crcRejects=%d corrupted=%d",
			ur.CRCRejects, ur.Channel.Corrupted)
	}
}

// A control-plane brownout long enough to defeat retransmission backoff
// forces the watchdog to re-trigger, and the network still converges after
// the burst ends.
func TestUnreliableWatchdogRecoversFromBurst(t *testing.T) {
	g := torus33(t)
	r, err := New(Config{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	ur, err := r.RunOver([]Trigger{{Node: 0}}, nil,
		faulty(t, ctrlnet.Config{
			Bursts: []ctrlnet.Window{{FromUS: 30, ToUS: 4000}},
			Seed:   1,
		}),
		Hardening{WatchdogUS: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if !ur.Converged {
		t.Fatalf("did not converge after burst (retrig=%d retx=%d)", ur.Retriggers, ur.Retransmits)
	}
	if ur.Retriggers == 0 {
		t.Fatal("a 4 ms brownout should have fired the watchdog at least once")
	}
}

func TestUnreliableScopedRegionConverges(t *testing.T) {
	g := torus33(t)
	r, err := New(Config{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	triggers := []Trigger{{Node: 4}}
	region := r.RegionOf(triggers, 1)
	ur, err := r.RunOver(triggers, region, faulty(t, chaosFaults(11)), Hardening{})
	if err != nil {
		t.Fatal(err)
	}
	if !ur.Converged {
		t.Fatal("scoped unreliable run did not converge")
	}
	if len(ur.Views) != len(region) {
		t.Fatalf("completed %d switches, region has %d", len(ur.Views), len(region))
	}
	for n := range ur.Views {
		if !region[n] {
			t.Fatalf("out-of-region switch %d completed", n)
		}
	}
}

// The reintroduced bug the chaos harness must catch: with the
// duplicate-invite re-accept guard disabled, a lost accept-ack orphans the
// child (the parent's retransmitted invite is declined), and only the
// watchdog's fresh epoch saves the run. Same seeds, guard on: zero
// re-triggers. Guard off: re-triggers appear.
func TestDupGuardRemovalForcesWatchdogRetriggers(t *testing.T) {
	g := torus33(t)
	r, err := New(Config{Topology: g})
	if err != nil {
		t.Fatal(err)
	}
	var withGuard, withoutGuard int64
	for seed := int64(0); seed < 10; seed++ {
		faults := ctrlnet.Config{DropProb: 0.25, Seed: seed}
		ok, err := r.RunOver([]Trigger{{Node: 0}}, nil, faulty(t, faults), Hardening{})
		if err != nil {
			t.Fatal(err)
		}
		withGuard += ok.Retriggers
		bad, err := r.RunOver([]Trigger{{Node: 0}}, nil, faulty(t, faults), Hardening{UnsafeNoDupGuard: true})
		if err != nil {
			t.Fatal(err)
		}
		withoutGuard += bad.Retriggers
	}
	if withGuard != 0 {
		t.Fatalf("hardened protocol needed %d watchdog re-triggers at 25%% loss — retransmission should suffice", withGuard)
	}
	if withoutGuard == 0 {
		t.Fatal("dup-guard removal never forced a re-trigger — the self-check hook is inert")
	}
}
