package ctrlnet

import (
	"bytes"
	"testing"

	"repro/internal/proto"
)

func wireMsg(t *testing.T, epoch uint64) []byte {
	t.Helper()
	w, err := proto.Marshal(&proto.Message{Kind: proto.KindInvite, Epoch: epoch})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestReliableByDefault(t *testing.T) {
	n, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := wireMsg(t, 7)
	for i := 0; i < 100; i++ {
		ds := n.Transmit(0, 1, w, int64(10+i))
		if len(ds) != 1 || !bytes.Equal(ds[0].Wire, w) || ds[0].AtUS != int64(10+i) {
			t.Fatalf("zero config mutated delivery %d: %+v", i, ds)
		}
	}
	if s := n.Stats(); s.Sent != 100 || s.Lost() != 0 || s.Duplicated+s.Reordered+s.Corrupted+s.Delayed != 0 {
		t.Fatalf("zero config recorded faults: %+v", s)
	}
}

// A loss-free channel never draws a fault decision, so it never seeds its
// source: New costs the Net and its held-message map, two allocations fewer
// than with the source seeded at construction. Every core.New boots over
// such a channel.
func TestLossFreeChannelSeedsNothing(t *testing.T) {
	if a := testing.AllocsPerRun(100, func() { New(Config{}) }); a != 2 {
		t.Fatalf("New(Config{}) makes %v allocations, want 2", a)
	}
	n, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := wireMsg(t, 7)
	for i := 0; i < 100; i++ {
		n.Transmit(0, 1, w, int64(i))
	}
	if n.rng != nil {
		t.Fatal("a loss-free channel seeded its fault source")
	}
}

// Transmit's aliasing contract, on which a sender offering one image to
// several receivers relies: a clean delivery is the sent image itself, and
// corrupted, duplicated and held deliveries are copies. So corrupting one
// send of a shared image leaves the next send of it intact.
func TestSharedImageSurvivesCorruptedSend(t *testing.T) {
	img := wireMsg(t, 7)
	orig := append([]byte(nil), img...)
	n, err := New(Config{CorruptProb: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds := n.Transmit(0, 1, img, 10); len(ds) != 1 || bytes.Equal(ds[0].Wire, orig) {
		t.Fatalf("CorruptProb 1 delivered %d images, first intact", len(ds))
	}
	if !bytes.Equal(img, orig) {
		t.Fatal("corrupting a delivery modified the sent image")
	}
	n.cfg.CorruptProb = 0
	ds := n.Transmit(0, 2, img, 20)
	if len(ds) != 1 || &ds[0].Wire[0] != &img[0] {
		t.Fatal("a clean delivery is not the sent image")
	}
	if _, err := proto.Unmarshal(ds[0].Wire); err != nil {
		t.Fatalf("second send of the shared image: %v", err)
	}
	n.cfg.DupProb = 1
	if ds := n.Transmit(0, 3, img, 30); len(ds) != 2 || &ds[1].Wire[0] == &img[0] {
		t.Fatal("a duplicate aliases the sent image")
	}
	n.cfg.DupProb, n.cfg.ReorderProb = 0, 1
	if ds := n.Transmit(0, 4, img, 40); len(ds) != 0 {
		t.Fatalf("ReorderProb 1 delivered %d images at once", len(ds))
	}
	if ds := n.Flush(); len(ds) != 1 || &ds[0].Wire[0] == &img[0] || !bytes.Equal(ds[0].Wire, orig) {
		t.Fatal("a held image aliases the sent image or changed")
	}
}

func TestDropRateRoughlyHonored(t *testing.T) {
	n, err := New(Config{DropProb: 0.3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	w := wireMsg(t, 1)
	delivered := 0
	const total = 5000
	for i := 0; i < total; i++ {
		delivered += len(n.Transmit(0, 1, w, int64(i)))
	}
	got := float64(n.Stats().Dropped) / total
	if got < 0.25 || got > 0.35 {
		t.Fatalf("drop rate %.3f far from 0.3", got)
	}
	if delivered+int(n.Stats().Dropped) != total {
		t.Fatalf("delivered %d + dropped %d != %d", delivered, n.Stats().Dropped, total)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() ([]int, Stats) {
		n, err := New(Config{DropProb: 0.2, DupProb: 0.2, ReorderProb: 0.2, CorruptProb: 0.1, DelayProb: 0.2, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		w := wireMsg(t, 3)
		var counts []int
		for i := 0; i < 500; i++ {
			counts = append(counts, len(n.Transmit(0, 1, w, int64(i*10))))
		}
		for _, d := range n.Flush() {
			_ = d
			counts = append(counts, -1)
		}
		return counts, n.Stats()
	}
	c1, s1 := run()
	c2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("delivery %d diverged: %d vs %d", i, c1[i], c2[i])
		}
	}
}

func TestCorruptionIsRejectedByCodec(t *testing.T) {
	n, err := New(Config{CorruptProb: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	w := wireMsg(t, 9)
	rejected := 0
	for i := 0; i < 50; i++ {
		for _, d := range n.Transmit(0, 1, w, int64(i)) {
			if _, err := proto.Unmarshal(d.Wire); err != nil {
				rejected++
			}
		}
	}
	if rejected != 50 {
		t.Fatalf("only %d/50 corrupted messages rejected by the codec", rejected)
	}
	if n.Stats().Corrupted != 50 {
		t.Fatalf("corrupted counter = %d", n.Stats().Corrupted)
	}
}

func TestReorderSwapsWithNextMessage(t *testing.T) {
	n, err := New(Config{ReorderProb: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	w1, w2 := wireMsg(t, 1), wireMsg(t, 2)
	if ds := n.Transmit(0, 1, w1, 100); len(ds) != 0 {
		t.Fatalf("first message should be held, got %d deliveries", len(ds))
	}
	// Second message: itself eligible for reorder but the hold slot is
	// busy, so it is delivered and releases the held one behind it.
	ds := n.Transmit(0, 1, w2, 110)
	if len(ds) != 2 {
		t.Fatalf("want 2 deliveries (current + released), got %d", len(ds))
	}
	if !bytes.Equal(ds[0].Wire, w2) || !bytes.Equal(ds[1].Wire, w1) {
		t.Fatal("messages not swapped")
	}
	if ds[1].AtUS <= ds[0].AtUS {
		t.Fatalf("released message must arrive after the overtaker: %d vs %d", ds[1].AtUS, ds[0].AtUS)
	}
}

func TestFlushReleasesHeld(t *testing.T) {
	n, err := New(Config{ReorderProb: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	w := wireMsg(t, 4)
	n.Transmit(0, 1, w, 50)
	n.Transmit(2, 1, w, 60)
	ds := n.Flush()
	if len(ds) != 2 {
		t.Fatalf("flush released %d, want 2", len(ds))
	}
	if n.Flush() != nil {
		t.Fatal("second flush should be empty")
	}
}

func TestBurstWindows(t *testing.T) {
	n, err := New(Config{
		Bursts: []Window{{FromUS: 100, ToUS: 200}},
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := wireMsg(t, 1)
	if len(n.Transmit(0, 1, w, 150)) != 0 {
		t.Fatal("message inside burst delivered")
	}
	if len(n.Transmit(0, 1, w, 250)) != 1 {
		t.Fatal("message outside burst lost")
	}
	s := n.Stats()
	if s.BurstDropped != 1 {
		t.Fatalf("window counters wrong: %+v", s)
	}
}

func TestBadProbabilityRejected(t *testing.T) {
	if _, err := New(Config{DropProb: 1.5}); err == nil {
		t.Fatal("DropProb 1.5 accepted")
	}
	if _, err := New(Config{DupProb: -0.1}); err == nil {
		t.Fatal("negative DupProb accepted")
	}
}
