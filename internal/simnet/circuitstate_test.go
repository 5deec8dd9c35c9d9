package simnet

import (
	"runtime"
	"testing"

	"repro/internal/cell"
	"repro/internal/switchnode"
)

// TestCloseFreesPerCircuitState: a service that churns circuits which
// carried traffic — open on a fresh VCI (as core allocates them), send three
// packets, drain, close — holds no per-VC state afterwards: the slot table
// stops growing at once and the heap stays flat. (The hosts' latency
// histograms keep every sample by design, so the test empties them as it
// goes; everything else the churn left behind would show.)
func TestCloseFreesPerCircuitState(t *testing.T) {
	n, _, h1, path := lineNet(t, 2, 1, Config{
		Switch:        switchnode.Config{FrameSlots: 8},
		IngressWindow: 8,
	})
	hs, _ := n.HostStats(h1)
	pkt := make([]byte, 100) // three cells
	churn := func(from, to int) {
		for i := from; i < to; i++ {
			vc := cell.VCI(i + 1)
			if _, err := n.OpenBestEffort(vc, path); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 3; k++ {
				if err := n.SendPacket(vc, pkt); err != nil {
					t.Fatal(err)
				}
			}
			n.Run(16)
			if got := len(n.Packets(h1)); got != 3 {
				t.Fatalf("circuit %d delivered %d of 3 packets", vc, got)
			}
			if err := n.CloseCircuit(vc); err != nil {
				t.Fatal(err)
			}
			hs.LatencyByClass[cell.BestEffort].Reset()
			hs.PacketLatency.Reset()
		}
	}
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapInuse
	}
	churn(0, 1000)
	slots, before := len(n.slots), heap()
	churn(1000, 20000)
	requireEngineInvariant(t, n)
	if len(n.slots) != slots || len(n.freeSlots) != slots {
		t.Fatalf("slot table grew from %d to %d (%d free) over 19000 open/close pairs", slots, len(n.slots), len(n.freeSlots))
	}
	if after := heap(); after > before+512<<10 {
		t.Fatalf("heap in use grew from %d to %d bytes over 19000 open/send/close rounds", before, after)
	}
	if hs.OutOfOrder != 0 || hs.PacketsCorrupt != 0 {
		t.Fatalf("churn corrupted delivery: %+v", *hs)
	}
}

// TestCloseDropsCellsOnEveryHop: one rule for the cells of a closed
// circuit. Wherever a cell is when its circuit closes — on the host link, on
// a switch link, buffered in a switch, on the last link to the destination —
// it is discarded and counted in DroppedReroute, nothing more is delivered,
// and the accounting identity holds throughout.
func TestCloseDropsCellsOnEveryHop(t *testing.T) {
	n, _, h1, path := lineNet(t, 4, 2, Config{Switch: switchnode.Config{FrameSlots: 8}})
	if _, err := n.OpenBestEffort(1, path); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := n.Send(1, [cell.PayloadSize]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(14) // the pipeline is full: cells delivered, cells on every link
	hs, _ := n.HostStats(h1)
	onLastLink := 0
	n.flights.each(func(f *flight) {
		if f.toIdx < 0 {
			onLastLink++
		}
	})
	before := n.Snapshot()
	if hs.CellsReceived == 0 || onLastLink == 0 || before.InFlight <= int64(onLastLink) {
		t.Fatalf("pipeline not full at close: received %d, on last link %d, %+v", hs.CellsReceived, onLastLink, before)
	}
	if err := n.CloseCircuit(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		n.Step()
		requireEngineInvariant(t, n)
		if s := n.Snapshot(); !s.Conserved() {
			t.Fatalf("conservation broken %d slots after close: %+v", i+1, s)
		}
	}
	after := n.Snapshot()
	if after.Delivered != before.Delivered {
		t.Fatalf("%d cells delivered to a host whose circuit was closed", after.Delivered-before.Delivered)
	}
	if want := before.InFlight + before.Buffered; after.DroppedReroute != want || after.InFlight != 0 || after.Buffered != 0 {
		t.Fatalf("closed circuit's %d cells inside the network: %+v", want, after)
	}
}

// TestRawCellsCannotGrowReassembly: Network.Send never marks an end of
// packet, so a raw-cell circuit's reassembly used to grow for ever. It is
// abandoned at the longest packet's length, counted as one corrupt packet,
// and the circuit's next packet reassembles normally.
func TestRawCellsCannotGrowReassembly(t *testing.T) {
	n, _, h1, path := lineNet(t, 1, 1, Config{Switch: switchnode.Config{FrameSlots: 8}})
	c, err := n.OpenBestEffort(1, path)
	if err != nil {
		t.Fatal(err)
	}
	raw := cell.CellsForPacketLen(cell.MaxPacketLen)
	for i := 0; i < raw; i++ {
		if err := n.Send(1, [cell.PayloadSize]byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.SendPacket(1, []byte("after")); err != nil {
		t.Fatal(err)
	}
	n.Run(int64(raw) + 10)
	hs, _ := n.HostStats(h1)
	if hs.CellsReceived != int64(raw)+1 || hs.PacketsCorrupt != 1 || hs.PacketsReassembled != 1 {
		t.Fatalf("after %d raw cells and a packet: %+v", raw, *hs)
	}
	if pkts := n.Packets(h1); len(pkts) != 1 || string(pkts[0]) != "after" {
		t.Fatalf("packets = %q", pkts)
	}
	if c.reasm.Partial() {
		t.Fatal("reassembly still partial")
	}
}

// TestForeignCellIsDroppedNotTrusted: a cell put into a switch from outside
// the network (through the Switch accessor), carrying a circuit slot that
// does not exist, is dropped as a reroute casualty when it leaves — the slot
// index in a cell is a hint to be confirmed, never trusted.
func TestForeignCellIsDroppedNotTrusted(t *testing.T) {
	n, _, _, path := lineNet(t, 2, 1, Config{Switch: switchnode.Config{FrameSlots: 8}})
	sw, _ := n.Switch(path[1])
	for _, circ := range []int32{0, 7, -1} {
		sw.EnqueueBestEffort(0, cell.Cell{VC: 9, Stamp: cell.Stamp{Circ: circ}}, 1)
	}
	n.Run(4)
	if got := n.Stats().DroppedReroute; got != 3 {
		t.Fatalf("DroppedReroute = %d, want the 3 foreign cells", got)
	}
}
