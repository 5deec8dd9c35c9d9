package vc

import (
	"testing"

	"repro/internal/cell"
)

func mustChain(t *testing.T, cfg Config) *Chain {
	t.Helper()
	ch, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestValidation(t *testing.T) {
	bad := []Config{
		{Switches: 0, LinkLatency: 1, ProcDelay: 1},
		{Switches: 1, LinkLatency: 0, ProcDelay: 1},
		{Switches: 1, LinkLatency: 1, ProcDelay: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// E16: the setup race. Data cells sent immediately after the setup cell
// arrive at switches before the routing entry is installed; they are
// buffered, not dropped, and delivered in order.
func TestVCSetupRace(t *testing.T) {
	ch := mustChain(t, Config{Switches: 3, LinkLatency: 2, ProcDelay: 10})
	ch.SendSetup(1)
	// Data follows the setup with no gap at all.
	for seq := uint64(0); seq < 20; seq++ {
		ch.SendData(1, seq)
		ch.Step()
	}
	ch.Run(300)
	got := ch.Delivered()
	var data []cell.Cell
	for _, c := range got {
		if !c.Signaling {
			data = append(data, c)
		}
	}
	if len(data) != 20 {
		t.Fatalf("delivered %d of 20 data cells", len(data))
	}
	for i, c := range data {
		if c.Stamp.Seq != uint64(i) {
			t.Fatalf("out of order: position %d has seq %d", i, c.Stamp.Seq)
		}
	}
	st := ch.Stats()
	if st.Drops != 0 {
		t.Fatalf("%d cells dropped during setup race", st.Drops)
	}
	if st.BufferedAtRace == 0 {
		t.Fatal("expected some cells to hit the race window (ProcDelay 10 > cell spacing)")
	}
}

func TestHardwarePathAfterSetup(t *testing.T) {
	ch := mustChain(t, Config{Switches: 2, LinkLatency: 1, ProcDelay: 5})
	ch.SendSetup(1)
	ch.Run(30) // let installation complete everywhere
	for i := 0; i < 2; i++ {
		if got := ch.switches[i].state[1]; got != entryInstalled {
			t.Fatalf("switch %d entry = %d", i, got)
		}
	}
	// Established circuit: latency is pure propagation (3 hops × 1 slot),
	// no software delay.
	start := ch.Slot()
	ch.SendData(1, 0)
	var arrived int64 = -1
	for k := int64(0); k < 20; k++ {
		ch.Step()
		for _, c := range ch.Delivered() {
			if !c.Signaling {
				arrived = ch.Slot()
			}
		}
		if arrived >= 0 {
			break
		}
	}
	if arrived < 0 {
		t.Fatal("cell never arrived")
	}
	if lat := arrived - start; lat > 4 {
		t.Fatalf("hardware-path latency %d slots; want pure propagation (3)", lat)
	}
}

func TestEntryStateLifecycle(t *testing.T) {
	ch := mustChain(t, Config{Switches: 1, LinkLatency: 1, ProcDelay: 5})
	sw := ch.switches[0]
	if got := sw.state[9]; got != entryNone {
		t.Fatalf("initial = %d", got)
	}
	ch.SendSetup(9)
	ch.Run(2) // setup arrived, installing
	if got := sw.state[9]; got != entryInstalling {
		t.Fatalf("after arrival = %d", got)
	}
	ch.Run(10)
	if got := sw.state[9]; got != entryInstalled {
		t.Fatalf("after proc delay = %d", got)
	}
}

// E17: page-out reclaims idle circuits; page-in on the next cell is
// transparent (delayed, but lossless and in order).
func TestVCPageOutPageIn(t *testing.T) {
	ch := mustChain(t, Config{Switches: 3, LinkLatency: 1, ProcDelay: 5, IdleTimeout: 50})
	ch.SendSetup(4)
	for seq := uint64(0); seq < 5; seq++ {
		ch.SendData(4, seq)
		ch.Step()
	}
	ch.Run(100) // idle long enough to page out everywhere
	if got := ch.switches[0].state[4]; got != entryPagedOut {
		t.Fatalf("after idle: %d", got)
	}
	st := ch.Stats()
	if st.PageOuts < 3 {
		t.Fatalf("page-outs = %d, want all 3 switches", st.PageOuts)
	}
	if got := st.Delivered; got != 5+1 { // 5 data + 1 setup
		t.Fatalf("delivered before page-in = %d", got)
	}
	ch.Delivered()

	// Traffic resumes: paged back in transparently.
	for seq := uint64(5); seq < 10; seq++ {
		ch.SendData(4, seq)
		ch.Step()
	}
	ch.Run(200)
	var data []cell.Cell
	for _, c := range ch.Delivered() {
		if !c.Signaling {
			data = append(data, c)
		}
	}
	if len(data) != 5 {
		t.Fatalf("delivered %d of 5 post-page-in cells", len(data))
	}
	for i, c := range data {
		if c.Stamp.Seq != uint64(5+i) {
			t.Fatalf("post-page-in order broken at %d: seq %d", i, c.Stamp.Seq)
		}
	}
	st = ch.Stats()
	if st.PageIns == 0 {
		t.Fatal("no page-in recorded")
	}
	if st.Drops != 0 {
		t.Fatalf("page-in dropped %d cells", st.Drops)
	}
	// After the long idle Run the circuit legitimately pages out again;
	// it must exist in some state (never none: nothing removes an entry).
	if got := ch.switches[0].state[4]; got == entryNone {
		t.Fatalf("after page-in: %d", got)
	}
}

func TestPageOutDoesNotAffectActiveCircuit(t *testing.T) {
	ch := mustChain(t, Config{Switches: 2, LinkLatency: 1, ProcDelay: 3, IdleTimeout: 20})
	ch.SendSetup(1)
	// Keep the circuit active: a cell every 10 slots (< timeout).
	seq := uint64(0)
	for k := 0; k < 200; k++ {
		if k%10 == 0 {
			ch.SendData(1, seq)
			seq++
		}
		ch.Step()
	}
	if got := ch.Stats().PageOuts; got != 0 {
		t.Fatalf("active circuit paged out %d times", got)
	}
}

func TestTwoCircuitsIndependent(t *testing.T) {
	ch := mustChain(t, Config{Switches: 2, LinkLatency: 1, ProcDelay: 5})
	ch.SendSetup(1)
	ch.Run(20)
	// Circuit 2's setup race does not disturb circuit 1's hardware path.
	ch.SendSetup(2)
	ch.SendData(2, 0)
	ch.SendData(1, 0)
	ch.Run(30)
	var got1, got2 int
	for _, c := range ch.Delivered() {
		if c.Signaling {
			continue
		}
		switch c.VC {
		case 1:
			got1++
		case 2:
			got2++
		}
	}
	if got1 != 1 || got2 != 1 {
		t.Fatalf("delivered vc1=%d vc2=%d", got1, got2)
	}
}

func TestDataBeforeAnySetupWaits(t *testing.T) {
	ch := mustChain(t, Config{Switches: 1, LinkLatency: 1, ProcDelay: 2})
	ch.SendData(7, 0)
	ch.Run(50)
	if got := ch.Stats().Delivered; got != 0 {
		t.Fatalf("cell without setup delivered (%d)", got)
	}
	// A late setup releases it.
	ch.SendSetup(7)
	ch.Run(50)
	data := 0
	for _, c := range ch.Delivered() {
		if !c.Signaling {
			data++
		}
	}
	if data != 1 {
		t.Fatalf("late setup released %d cells, want 1", data)
	}
}

func BenchmarkSetupRace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ch, err := New(Config{Switches: 4, LinkLatency: 1, ProcDelay: 8})
		if err != nil {
			b.Fatal(err)
		}
		ch.SendSetup(1)
		for seq := uint64(0); seq < 16; seq++ {
			ch.SendData(1, seq)
			ch.Step()
		}
		ch.Run(120)
		if ch.Stats().Drops != 0 {
			b.Fatal("drops")
		}
	}
}
