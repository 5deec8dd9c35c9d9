package cell

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	c := Cell{VC: 0x123456, EndOfPacket: true, Signaling: true, Class: Guaranteed}
	for i := range c.Payload {
		c.Payload[i] = byte(i * 3)
	}
	b, err := c.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if len(b) != Size {
		t.Fatalf("wire size = %d, want %d", len(b), Size)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.VC != c.VC || got.EndOfPacket != c.EndOfPacket || got.Signaling != c.Signaling || got.Class != c.Class {
		t.Errorf("header mismatch: got %+v want %+v", got, c)
	}
	if got.Payload != c.Payload {
		t.Error("payload mismatch after round trip")
	}
}

func TestMarshalRejectsHugeVCI(t *testing.T) {
	c := Cell{VC: maxVCI + 1}
	if _, err := c.Marshal(); !errors.Is(err, ErrVCIRange) {
		t.Fatalf("err = %v, want ErrVCIRange", err)
	}
}

func TestUnmarshalDetectsCorruption(t *testing.T) {
	c := Cell{VC: 77, Class: BestEffort}
	b, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < HeaderSize-1; i++ {
		bad := append([]byte(nil), b...)
		bad[i] ^= 0x40
		if _, err := Unmarshal(bad); !errors.Is(err, ErrBadHEC) {
			t.Errorf("corrupting header byte %d: err = %v, want ErrBadHEC", i, err)
		}
	}
}

func TestUnmarshalWrongSize(t *testing.T) {
	if _, err := Unmarshal(make([]byte, Size-1)); err == nil {
		t.Error("short buffer accepted")
	}
	if _, err := Unmarshal(make([]byte, Size+1)); err == nil {
		t.Error("long buffer accepted")
	}
}

func TestClassString(t *testing.T) {
	if BestEffort.String() != "best-effort" || Guaranteed.String() != "guaranteed" {
		t.Error("class names wrong")
	}
	if Class(9).String() == "" {
		t.Error("unknown class should still print")
	}
}

func TestSegmentReassembleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var r Reassembler
	for _, n := range []int{0, 1, 39, 40, 41, 47, 48, 49, 1000, 1500, MaxPacketLen} {
		pkt := make([]byte, n)
		rng.Read(pkt)
		cells, err := Segment(42, BestEffort, pkt)
		if err != nil {
			t.Fatalf("Segment(%d bytes): %v", n, err)
		}
		if want := CellsForPacketLen(n); len(cells) != want {
			t.Errorf("Segment(%d bytes) = %d cells, want %d", n, len(cells), want)
		}
		for i, c := range cells {
			got, done, err := r.Add(&c)
			if err != nil {
				t.Fatalf("Add cell %d of %d-byte packet: %v", i, n, err)
			}
			if i < len(cells)-1 {
				if done {
					t.Fatalf("packet done after %d/%d cells", i+1, len(cells))
				}
				continue
			}
			if !done {
				t.Fatalf("packet not done after all %d cells", len(cells))
			}
			if !bytes.Equal(got, pkt) {
				t.Fatalf("reassembled %d bytes != original %d bytes", len(got), len(pkt))
			}
		}
	}
}

func TestSegmentRejectsOversized(t *testing.T) {
	if _, err := Segment(1, BestEffort, make([]byte, MaxPacketLen+1)); err == nil {
		t.Error("oversized packet accepted")
	}
	if _, err := Segment(maxVCI+1, BestEffort, []byte("x")); !errors.Is(err, ErrVCIRange) {
		t.Errorf("err = %v, want ErrVCIRange", err)
	}
}

func TestReassemblerInterleavesCircuits(t *testing.T) {
	pktA := bytes.Repeat([]byte("a"), 300)
	pktB := bytes.Repeat([]byte("b"), 300)
	cellsA, err := Segment(1, BestEffort, pktA)
	if err != nil {
		t.Fatal(err)
	}
	cellsB, err := Segment(2, BestEffort, pktB)
	if err != nil {
		t.Fatal(err)
	}
	// One reassembler per circuit, as a receiver keeps them.
	var rs [2]Reassembler
	var got [][]byte
	for i := 0; i < len(cellsA) || i < len(cellsB); i++ {
		for k, src := range [][]Cell{cellsA, cellsB} {
			if i >= len(src) {
				continue
			}
			pkt, done, err := rs[k].Add(&src[i])
			if err != nil {
				t.Fatal(err)
			}
			if done {
				got = append(got, pkt)
			}
		}
	}
	if len(got) != 2 || !bytes.Equal(got[0], pktA) || !bytes.Equal(got[1], pktB) {
		t.Fatalf("interleaved reassembly produced %d packets", len(got))
	}
	if rs[0].Partial() || rs[1].Partial() {
		t.Error("a reassembler is still partial after its packet completed")
	}
}

// TestReassemblerBoundsUnmarkedCells: a circuit whose sender never marks an
// end of packet cannot grow the buffer past the longest packet — the run of
// cells is abandoned as a bad length and the next cell starts afresh.
func TestReassemblerBoundsUnmarkedCells(t *testing.T) {
	var r Reassembler
	maxCells := CellsForPacketLen(MaxPacketLen)
	for round := 0; round < 2; round++ {
		for i := 1; i <= maxCells; i++ {
			_, done, err := r.Add(&Cell{VC: 3})
			if i < maxCells && (done || err != nil) {
				t.Fatalf("round %d cell %d: done=%v err=%v before the bound", round, i, done, err)
			}
			if i == maxCells && (!done || !errors.Is(err, ErrBadLength)) {
				t.Fatalf("round %d: cell %d gave done=%v err=%v, want an abandoned reassembly", round, i, done, err)
			}
		}
		if r.Partial() || cap(r.buf) > 2*maxReassemblyLen {
			t.Fatalf("round %d: partial=%v cap=%d after the bound", round, r.Partial(), cap(r.buf))
		}
	}
	// A well-formed packet right after is reassembled normally.
	cells, err := Segment(3, BestEffort, []byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	if pkt, done, err := r.Add(&cells[0]); !done || err != nil || string(pkt) != "after" {
		t.Fatalf("packet after the bound: %q done=%v err=%v", pkt, done, err)
	}
}

func TestReassemblerDetectsCorruptPayload(t *testing.T) {
	cells, err := Segment(9, BestEffort, bytes.Repeat([]byte("z"), 100))
	if err != nil {
		t.Fatal(err)
	}
	cells[0].Payload[3] ^= 0xff
	var r Reassembler
	var lastErr error
	for _, c := range cells {
		_, done, err := r.Add(&c)
		if done {
			lastErr = err
		}
	}
	if !errors.Is(lastErr, ErrBadCRC) {
		t.Fatalf("err = %v, want ErrBadCRC", lastErr)
	}
}

func TestReassemblerDetectsBogusLength(t *testing.T) {
	cells, err := Segment(9, BestEffort, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the trailer length field (bytes 40-41 of the last cell for a
	// 5-byte packet in one cell).
	last := &cells[len(cells)-1]
	last.Payload[PayloadSize-trailerSize] = 0xff
	last.Payload[PayloadSize-trailerSize+1] = 0xff
	var r Reassembler
	_, done, err := r.Add(last)
	if !done {
		t.Fatal("single-cell packet should complete")
	}
	if !errors.Is(err, ErrBadLength) {
		t.Fatalf("err = %v, want ErrBadLength", err)
	}
}

func TestReassemblerReset(t *testing.T) {
	cells, err := Segment(5, BestEffort, bytes.Repeat([]byte("q"), 200))
	if err != nil {
		t.Fatal(err)
	}
	var r Reassembler
	if _, _, err := r.Add(&cells[0]); err != nil {
		t.Fatal(err)
	}
	if !r.Partial() {
		t.Fatal("not partial after the first of several cells")
	}
	r.Reset()
	if r.Partial() {
		t.Fatal("still partial after Reset")
	}
}

// Property: segment→reassemble is the identity for arbitrary packets, and
// the wire encoding round-trips every cell.
func TestQuickSegmentIdentity(t *testing.T) {
	f := func(data []byte, vcRaw uint32) bool {
		if len(data) > MaxPacketLen {
			data = data[:MaxPacketLen]
		}
		vc := VCI(vcRaw % maxVCI)
		cells, err := Segment(vc, BestEffort, data)
		if err != nil {
			return false
		}
		var r Reassembler
		for i, c := range cells {
			wire, err := c.Marshal()
			if err != nil {
				return false
			}
			back, err := Unmarshal(wire)
			if err != nil {
				return false
			}
			pkt, done, err := r.Add(&back)
			if i == len(cells)-1 {
				return done && err == nil && bytes.Equal(pkt, data)
			}
			if done || err != nil {
				return false
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCellsForPacketLen(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 1}, {1, 1}, {40, 1}, {41, 2}, {48, 2}, {88, 2}, {89, 3},
	}
	for _, c := range cases {
		if got := CellsForPacketLen(c.n); got != c.want {
			t.Errorf("CellsForPacketLen(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func BenchmarkSegment1500(b *testing.B) {
	pkt := make([]byte, 1500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Segment(1, BestEffort, pkt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshal(b *testing.B) {
	c := Cell{VC: 99}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}
