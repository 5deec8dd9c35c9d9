package simnet

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/cell"
	"repro/internal/obs"
	"repro/internal/switchnode"
)

// switchField reaches a private field of a switch, so a test in this package
// can break switchnode's bookkeeping the way a bug inside it would.
func switchField[T any](sw *switchnode.Switch, name string) *T {
	return (*T)(unsafe.Pointer(reflect.ValueOf(sw).Elem().FieldByName(name).UnsafeAddr()))
}

// occupy wakes switch 1 and buffers one cell of the given class at its
// input 0, through the front door.
func occupy(n *Network, guaranteed bool) *switchnode.Switch {
	n.wakeIdx(1)
	sw := n.switchByIdx[1]
	if guaranteed {
		sw.EnqueueGuaranteed(0, cell.Cell{VC: 1}, 1)
	} else {
		sw.EnqueueBestEffort(0, cell.Cell{VC: 1}, 1)
	}
	return sw
}

// TestIdleNetworkSleepsAndCountsEverySlot: with no traffic every switch
// dozes off in slot 0 and is never stepped again, yet IdleStepsSkipped
// reads switches × slots at any moment — the count per-slot idle stepping
// would have produced — without a wake to settle it.
func TestIdleNetworkSleepsAndCountsEverySlot(t *testing.T) {
	n, _, _, _ := lineNet(t, 3, 1, Config{Switch: switchnode.Config{FrameSlots: 8}})
	for slots := int64(1); slots <= 50; slots++ {
		n.Step()
		requireEngineInvariant(t, n)
		if got := n.Stats().IdleStepsSkipped; got != 3*slots {
			t.Fatalf("after %d idle slots IdleStepsSkipped = %d, want %d", slots, got, 3*slots)
		}
	}
	if len(n.active) != 0 {
		t.Fatalf("%d switches still awake on an idle network", len(n.active))
	}
	// A wake settles the sleeper's own clock to the network's.
	sw, _ := n.Switch(0)
	if sw.Slot() != n.Slot() {
		t.Fatalf("woken switch clock %d, network slot %d", sw.Slot(), n.Slot())
	}
	requireEngineInvariant(t, n)
}

// TestEngineInvariantCatchesViolations breaks the engine's bookkeeping one
// way at a time and requires CheckEngineInvariant to notice, so the
// per-slot checks in the fuzz and chaos harnesses are not vacuous.
func TestEngineInvariantCatchesViolations(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(n *Network)
	}{
		{"cell in a sleeping switch", func(n *Network) {
			n.switchByIdx[1].EnqueueBestEffort(0, cell.Cell{VC: 1}, 1)
		}},
		{"sleeper left on the active list", func(n *Network) { n.active = append(n.active, 1) }},
		{"awake switch missing from the active list", func(n *Network) {
			n.wakeIdx(1)
			n.active = n.active[:0]
		}},
		{"active list out of order", func(n *Network) {
			n.wakeIdx(0)
			n.wakeIdx(2)
			n.active[0], n.active[1] = n.active[1], n.active[0]
		}},
		{"sleep totals drifted", func(n *Network) { n.sleepSum++ }},
		{"cell filed under the wrong arrival slot", func(n *Network) {
			b := &n.flights.ring[n.slot%int64(len(n.flights.ring))]
			*b = append(*b, flight{arrive: n.slot + 1})
			n.flights.count++
		}},
		{"cell due beyond the calendar's reach", func(n *Network) {
			at := n.slot + int64(len(n.flights.ring))
			n.flights.file(at).arrive = at
		}},
		{"credit already overdue", func(n *Network) {
			at := n.slot - int64(len(n.credits.ring))
			n.credits.file(at).arrive = at
		}},
		{"in-flight count drifted", func(n *Network) { n.flights.count++ }},
		{"queued circuit missing from the ready list", func(n *Network) { n.ready = n.ready[:0] }},
		{"ready list holds an idle circuit", func(n *Network) { n.ready = append(n.ready, n.circOrder[2]) }},
		{"ready list out of order", func(n *Network) { n.ready[0], n.ready[1] = n.ready[1], n.ready[0] }},
		{"ready list duplicated", func(n *Network) { n.ready = append(n.ready, n.ready[1]) }},
		{"circuit outside its slot", func(n *Network) { n.slots[n.circOrder[0].c.slot] = nil }},
		{"occupancy bit on an empty switch", func(n *Network) {
			(*switchField[[]uint64](n.switchByIdx[1], "occBE"))[0] |= 1 << 2
		}},
		{"best-effort cell its switch would never visit", func(n *Network) {
			(*switchField[[]uint64](occupy(n, false), "occBE"))[0] = 0
		}},
		{"guaranteed cell its switch would never visit", func(n *Network) {
			(*switchField[[]uint64](occupy(n, true), "occGtd"))[0] = 0
		}},
		{"switch cell count drifted from its buffers", func(n *Network) {
			*switchField[int](occupy(n, false), "buffered")++
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, _, _, path := lineNet(t, 3, 1, Config{Switch: switchnode.Config{FrameSlots: 8}})
			n.Run(4)
			// Three circuits, two of them with a cell queued at the source
			// (nothing is stepped again, so no switch wakes).
			for vc := cell.VCI(1); vc <= 3; vc++ {
				if _, err := n.OpenBestEffort(vc, path); err != nil {
					t.Fatal(err)
				}
				if vc < 3 {
					if err := n.Send(vc, [cell.PayloadSize]byte{}); err != nil {
						t.Fatal(err)
					}
				}
			}
			requireEngineInvariant(t, n)
			tc.mutate(n)
			if err := n.CheckEngineInvariant(); err == nil {
				t.Fatal("violation went undetected")
			}
		})
	}
}

// TestOccupancySeriesIsPerPortSum: the per-switch occupancy series records
// Switch.Buffered, which must read what summing both classes over every port
// reads, slot by slot, on switches that fill and drain.
func TestOccupancySeriesIsPerPortSum(t *testing.T) {
	reg := obs.NewRegistry()
	n, _, _, path := lineNet(t, 3, 1, Config{Obs: reg, Switch: switchnode.Config{FrameSlots: 8}})
	if _, err := n.OpenBestEffort(1, path); err != nil {
		t.Fatal(err)
	}
	if _, err := n.OpenGuaranteed(2, path, 2); err != nil {
		t.Fatal(err)
	}
	peak := int64(0)
	for slot := 0; slot < 200; slot++ {
		if slot < 120 {
			for vc := cell.VCI(1); vc <= 2; vc++ {
				if err := n.SendPacket(vc, make([]byte, 100)); err != nil {
					t.Fatal(err)
				}
			}
		}
		n.Step()
		for idx, s := range n.switchOrder {
			sw, sum := n.switches[s], 0
			for port := 0; port < sw.N(); port++ {
				sum += sw.BufferedBestEffort(port) + sw.BufferedGuaranteed(port)
			}
			_, recorded, ok := n.obsOcc[idx].Last()
			if !ok || recorded != int64(sum) || sw.Buffered() != sum {
				t.Fatalf("slot %d switch %d: series %d, Buffered %d, ports sum to %d", slot, s, recorded, sw.Buffered(), sum)
			}
			peak = max(peak, recorded)
		}
	}
	if peak < 2 {
		t.Fatalf("switches never held more than %d cells: the comparison saw nothing", peak)
	}
}
