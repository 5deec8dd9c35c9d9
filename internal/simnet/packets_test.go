package simnet

import (
	"bytes"
	"testing"

	"repro/internal/cell"
	"repro/internal/routing"
	"repro/internal/switchnode"
	"repro/internal/topology"
)

// packetTorus builds a 3×3 torus with two hosts per switch; host i holds a
// best-effort circuit to host i+5 and every third host a guaranteed one to
// host i+7. It returns the network, the circuits and their destinations.
func packetTorus(t *testing.T) (*Network, []cell.VCI, []topology.NodeID) {
	t.Helper()
	g, err := topology.Torus(3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AttachHosts(g, 2, 1); err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{
		Topology: g,
		Switch: switchnode.Config{
			Discipline: switchnode.DisciplinePerVC,
			FrameSlots: 32,
			Seed:       3,
		},
		IngressWindow: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := routing.NewRouter(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	var vcs []cell.VCI
	var dsts []topology.NodeID
	open := func(src, dst topology.NodeID, gtd bool) {
		path, err := r.ShortestLegal(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		vc := cell.VCI(len(vcs) + 1)
		if gtd {
			_, err = n.OpenGuaranteed(vc, path, 2)
		} else {
			_, err = n.OpenBestEffort(vc, path)
		}
		if err != nil {
			t.Fatal(err)
		}
		vcs, dsts = append(vcs, vc), append(dsts, dst)
	}
	for i, h := range hosts {
		open(h, hosts[(i+5)%len(hosts)], false)
		if i%3 == 0 {
			open(h, hosts[(i+7)%len(hosts)], true)
		}
	}
	return n, vcs, dsts
}

// TestSlotAllocationFreeWithPackets: a torus carrying best-effort and
// guaranteed packets sent from a stack buffer, stepped one slot at a time
// and polled every 1 000 slots, allocates nothing once warm — segmentation,
// stepping, delivery, the latency histograms and reassembly included.
func TestSlotAllocationFreeWithPackets(t *testing.T) {
	n, vcs, dsts := packetTorus(t)
	var slot int
	delivered := 0
	step := func() {
		for i, vc := range vcs {
			if (slot+i)%16 != 0 {
				continue
			}
			var pkt [40]byte
			pkt[0], pkt[1] = byte(vc), byte(slot)
			if err := n.SendPacket(vc, pkt[:]); err != nil {
				t.Fatal(err)
			}
		}
		n.Run(1)
		slot++
		if slot%1000 == 0 {
			for _, d := range dsts {
				delivered += len(n.Packets(d))
			}
		}
	}
	const slots = 5000
	run := func() {
		for i := 0; i < slots; i++ {
			step()
		}
	}
	run() // warm-up: queues, calendars, histograms and batches at size
	delivered = 0
	allocs := testing.AllocsPerRun(1, run) // one more warm-up run, then one measured
	if delivered == 0 {
		t.Fatal("no packets delivered — the measured slots did no work")
	}
	if allocs != 0 {
		t.Fatalf("%.0f allocations in %d slots (%.4f per slot), want 0", allocs, slots, allocs/slots)
	}
}

// TestPacketsReleaseUnpolledBacklog: packets collected over a long unpolled
// stretch are handed out once, and regular polls afterwards bring the
// host's retained storage back to at most twice a regular batch — the
// backlog's buffers are dropped, not reused.
func TestPacketsReleaseUnpolledBacklog(t *testing.T) {
	n, _, h1, path := lineNet(t, 2, 1, Config{Switch: switchnode.Config{FrameSlots: 16}})
	if _, err := n.OpenBestEffort(1, path); err != nil {
		t.Fatal(err)
	}
	var pkt [40]byte
	run := func(slots int) {
		for i := 0; i < slots; i++ {
			if i%2 == 0 {
				pkt[0] = byte(i)
				if err := n.SendPacket(1, pkt[:]); err != nil {
					t.Fatal(err)
				}
			}
			n.Step()
		}
	}
	run(50_000)
	if got := len(n.Packets(h1)); got < 20_000 {
		t.Fatalf("backlog of %d packets, want ≈25 000", got)
	}
	var bytesPer, packetsPer int
	for poll := 0; poll < 4; poll++ {
		run(200)
		batch := n.Packets(h1)
		packetsPer = max(packetsPer, len(batch))
		b := 0
		for _, p := range batch {
			b += len(p)
		}
		bytesPer = max(bytesPer, b)
	}
	h := n.hosts[h1]
	for _, b := range []*batch{&h.filling, &h.polled} {
		if cap(b.buf) > 2*bytesPer || cap(b.ends) > 2*packetsPer || cap(b.views) > 2*packetsPer {
			t.Fatalf("host retains %d bytes, %d ends, %d views; a batch is %d bytes, %d packets",
				cap(b.buf), cap(b.ends), cap(b.views), bytesPer, packetsPer)
		}
	}
}

// TestPacketsBatchValidUntilNextCall: a batch Packets returned keeps its
// contents while more packets are reassembled behind it, until the next
// Packets call for the host.
func TestPacketsBatchValidUntilNextCall(t *testing.T) {
	n, _, h1, path := lineNet(t, 2, 1, Config{Switch: switchnode.Config{FrameSlots: 16}})
	if _, err := n.OpenBestEffort(1, path); err != nil {
		t.Fatal(err)
	}
	round := func(tag byte) [][]byte {
		for i := 0; i < 5; i++ {
			if err := n.SendPacket(1, bytes.Repeat([]byte{tag, byte(i)}, 30+i)); err != nil {
				t.Fatal(err)
			}
		}
		n.Run(100)
		return n.Packets(h1)
	}
	check := func(batch [][]byte, tag byte) {
		t.Helper()
		if len(batch) != 5 {
			t.Fatalf("batch %q: %d packets, want 5", tag, len(batch))
		}
		for i, p := range batch {
			if want := bytes.Repeat([]byte{tag, byte(i)}, 30+i); !bytes.Equal(p, want) {
				t.Fatalf("batch %q packet %d overwritten: %q", tag, i, p)
			}
		}
	}
	round('a')
	b := round('b')
	// Reassembly now refills the storage of batch 'a'; 'b' must survive it.
	for i := 0; i < 5; i++ {
		if err := n.SendPacket(1, bytes.Repeat([]byte{'c', byte(i)}, 30+i)); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(100)
	check(b, 'b')
	check(n.Packets(h1), 'c')
	check(round('d'), 'd')
}
