package monitor

import (
	"testing"
)

func TestHealthyLinkNeverTransitions(t *testing.T) {
	s := New(Config{Skeptical: true})
	res := Drive(s, func(int64) bool { return true }, 1000, 10_000_000) // healthy
	if res.Reconfigurations != 0 {
		t.Fatalf("healthy link caused %d reconfigurations", res.Reconfigurations)
	}
	if res.FinalState != Working {
		t.Fatalf("state = %v", res.FinalState)
	}
}

func TestSeveredLinkGoesDownOnce(t *testing.T) {
	s := New(Config{Skeptical: true, FailThreshold: 3})
	res := Drive(s, func(int64) bool { return false }, 1000, 10_000_000) // severed
	if res.Reconfigurations != 1 {
		t.Fatalf("severed link caused %d reconfigurations, want 1 (down)", res.Reconfigurations)
	}
	if res.FinalState != Dead {
		t.Fatalf("state = %v", res.FinalState)
	}
	ev := s.Events()
	if len(ev) != 1 || ev[0].Up {
		t.Fatalf("events = %+v", ev)
	}
}

func TestFailThreshold(t *testing.T) {
	s := New(Config{FailThreshold: 5, Skeptical: true})
	for i := 0; i < 4; i++ {
		s.PingFail(int64(i) * 1000)
	}
	if s.State() != Working {
		t.Fatal("went dead before threshold")
	}
	s.PingFail(5000)
	if s.State() != Dead {
		t.Fatal("did not go dead at threshold")
	}
	// A success between failures resets the count.
	s2 := New(Config{FailThreshold: 3, Skeptical: true})
	s2.PingFail(0)
	s2.PingFail(1)
	s2.PingOK(2)
	s2.PingFail(3)
	s2.PingFail(4)
	if s2.State() != Working {
		t.Fatal("non-consecutive failures killed the link")
	}
}

func TestRecoveryRequiresProvingPeriod(t *testing.T) {
	s := New(Config{FailThreshold: 1, BaseWaitUS: 1000, Skeptical: true})
	s.PingFail(0)
	if s.State() != Dead {
		t.Fatal("not dead")
	}
	s.PingOK(100) // begins proving
	if s.State() != Proving {
		t.Fatalf("state = %v, want proving", s.State())
	}
	s.PingOK(500) // not long enough
	if s.State() != Proving {
		t.Fatal("recovered too early")
	}
	s.PingOK(1100) // 1000 µs after proving began
	if s.State() != Working {
		t.Fatalf("state = %v, want working after proving period", s.State())
	}
	ev := s.Events()
	if len(ev) != 2 || !ev[1].Up {
		t.Fatalf("events = %+v", ev)
	}
}

func TestEscalationDoublesWait(t *testing.T) {
	s := New(Config{FailThreshold: 1, BaseWaitUS: 1000, MaxWaitUS: 1 << 40, Skeptical: true})
	if got := s.RequiredWaitUS(); got != 1000 {
		t.Fatalf("initial wait = %d", got)
	}
	now := int64(0)
	// Fail, recover, fail, recover... each failure doubles the wait.
	wants := []int64{1000, 2000, 4000, 8000}
	for k, want := range wants {
		s.PingFail(now)
		if s.State() != Dead {
			t.Fatalf("round %d: not dead", k)
		}
		if got := s.RequiredWaitUS(); got != want {
			t.Fatalf("round %d: wait = %d, want %d", k, got, want)
		}
		now += 10
		s.PingOK(now) // begin proving
		now += want
		s.PingOK(now) // complete proving
		if s.State() != Working {
			t.Fatalf("round %d: not working after %d", k, want)
		}
		now += 10
	}
}

func TestFailureDuringProvingEscalates(t *testing.T) {
	s := New(Config{FailThreshold: 1, BaseWaitUS: 1000, Skeptical: true})
	s.PingFail(0)
	lvl := s.Level()
	s.PingOK(10)   // proving
	s.PingFail(20) // relapse
	if s.State() != Dead {
		t.Fatal("relapse did not return to dead")
	}
	if s.Level() != lvl+1 {
		t.Fatalf("level = %d, want %d", s.Level(), lvl+1)
	}
}

func TestMaxWaitCap(t *testing.T) {
	s := New(Config{FailThreshold: 1, BaseWaitUS: 1000, MaxWaitUS: 3000, Skeptical: true})
	for i := 0; i < 10; i++ {
		s.PingFail(int64(i * 100))
		s.PingOK(int64(i*100 + 50))
	}
	if got := s.RequiredWaitUS(); got != 3000 {
		t.Fatalf("wait = %d, want capped 3000", got)
	}
}

func TestDecayForgivesHistory(t *testing.T) {
	s := New(Config{FailThreshold: 1, BaseWaitUS: 1000, DecayUS: 5000, Skeptical: true})
	// Two failures -> level 2.
	s.PingFail(0)
	s.PingOK(10)
	s.PingOK(10 + 2000) // proving complete (wait for level 1... escalated)
	for s.State() != Working {
		s.PingOK(s.provingSince + s.RequiredWaitUS() + 1)
	}
	lvl := s.Level()
	if lvl == 0 {
		t.Fatal("expected nonzero level after failure")
	}
	// A long healthy stretch decays skepticism back to zero.
	base := s.goodSince
	for k := int64(1); k <= 20; k++ {
		s.PingOK(base + k*5000)
	}
	if s.Level() != 0 {
		t.Fatalf("level = %d after long good period, want 0", s.Level())
	}
}

// E15: a flapping link without the skeptic causes reconfiguration storms;
// with the skeptic the storm is damped by escalating proving periods.
func TestSkepticDampsFlappingLink(t *testing.T) {
	const (
		ping     = 1000       // 1 ms pings
		duration = 60_000_000 // 60 s
	)
	flap := Flapping(300_000, 50_000) // 300 ms up, 50 ms down, forever
	// Skepticism must decay on a much longer timescale than the flap
	// period, or each good burst forgives the history (decay is meant to
	// forgive failures that are days apart, not milliseconds).
	naive := Drive(New(Config{FailThreshold: 3, BaseWaitUS: 10_000, DecayUS: 600_000_000, Skeptical: false}),
		flap, ping, duration)
	skeptic := Drive(New(Config{FailThreshold: 3, BaseWaitUS: 10_000, DecayUS: 600_000_000, Skeptical: true}),
		flap, ping, duration)
	if naive.Reconfigurations < 4*skeptic.Reconfigurations {
		t.Fatalf("skeptic did not damp the storm: naive %d vs skeptic %d reconfigurations",
			naive.Reconfigurations, skeptic.Reconfigurations)
	}
	if skeptic.Reconfigurations == 0 {
		t.Fatal("skeptic should still report the first failure")
	}
}

// After a flapping episode ends, the skeptic eventually believes the link
// again (it requires an increasingly long — but finite — proving period).
func TestSkepticEventuallyForgives(t *testing.T) {
	s := New(Config{FailThreshold: 3, BaseWaitUS: 10_000, MaxWaitUS: 1_000_000, Skeptical: true})
	// 5 seconds of flapping...
	flap := Flapping(100_000, 50_000)
	Drive(s, flap, 1000, 5_000_000)
	// ...then the link becomes healthy.
	start := int64(5_000_001)
	for now := start; now < start+10_000_000; now += 1000 {
		s.PingOK(now)
	}
	if s.State() != Working {
		t.Fatalf("state = %v after 10 s of health, want working", s.State())
	}
}

func TestStateString(t *testing.T) {
	if Working.String() != "working" || Proving.String() != "proving" || Dead.String() != "dead" {
		t.Error("state names wrong")
	}
	if State(42).String() == "" {
		t.Error("unknown state should print")
	}
}

func TestDefaultsApplied(t *testing.T) {
	s := New(Config{})
	if s.cfg.FailThreshold != 3 || s.cfg.BaseWaitUS != 100_000 ||
		s.cfg.MaxWaitUS != 60_000_000 || s.cfg.DecayUS != 1_000_000 {
		t.Fatalf("defaults = %+v", s.cfg)
	}
}
