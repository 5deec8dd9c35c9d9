package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/cell"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/switchnode"
	"repro/internal/topology"
)

// E24: the AN1→AN2 data-path upgrade measured at network level. The same
// topology and the same offered traffic, with every switch running either
// AN1-style FIFO input buffers or AN2-style per-VC buffers + PIM. Head-of-
// line blocking compounds across hops, so the network-level gap exceeds
// the single-switch gap of E2/E4.

func init() {
	register(&Experiment{
		ID:    "E24",
		Title: "AN1 vs AN2 data path, end to end across a network",
		Claim: "AN1's FIFO queues block at the head of line at every hop; AN2's random-access buffers plus PIM remove the blocking throughout the fabric (§3, network-level composite)",
		Run:   runE24,
	})
}

func runE24(seed int64) ([]*metrics.Table, error) {
	t := metrics.NewTable("E24 — 3×3 torus, 18 crossing circuits, saturating sources",
		"data path", "delivered/slot", "mean-lat", "p99-lat", "in-net backlog")
	for _, mode := range []struct {
		name string
		disc switchnode.Discipline
	}{
		{"AN1 (FIFO input queues)", switchnode.DisciplineFIFO},
		{"AN2 (per-VC + PIM-3)", switchnode.DisciplinePerVC},
	} {
		rng := rand.New(rand.NewSource(seed))
		g, err := topology.Torus(3, 3, 1)
		if err != nil {
			return nil, err
		}
		if err := topology.AttachHosts(g, 2, 1); err != nil {
			return nil, err
		}
		n, err := simnet.New(simnet.Config{
			Topology:      g,
			Switch:        switchnode.Config{FrameSlots: 64, Discipline: mode.disc, Seed: seed},
			IngressWindow: 32,
		})
		if err != nil {
			return nil, err
		}
		hosts := g.Hosts()
		var vcs []cell.VCI
		for k := 0; k < 18; k++ {
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			if src == dst {
				continue
			}
			path := torusPath(g, src, dst)
			if path == nil {
				continue
			}
			vc := cell.VCI(k + 1)
			if _, err := n.OpenBestEffort(vc, path); err != nil {
				continue
			}
			vcs = append(vcs, vc)
		}
		if len(vcs) == 0 {
			return nil, fmt.Errorf("E24: no circuits opened")
		}
		const slots = 12000
		for s := 0; s < slots; s++ {
			for _, vc := range vcs {
				if err := n.Send(vc, [cell.PayloadSize]byte{}); err != nil {
					return nil, err
				}
			}
			n.Step()
		}
		var delivered int64
		var lat metrics.Histogram
		for _, h := range hosts {
			if hs, ok := n.HostStats(h); ok {
				delivered += hs.CellsReceived
				lat.Merge(hs.LatencyByClass[cell.BestEffort])
			}
		}
		sum := lat.Summarize()
		t.AddRow(mode.name, float64(delivered)/float64(slots), sum.Mean, sum.P99,
			n.TotalBestEffortBacklog())
	}
	return []*metrics.Table{t}, nil
}

// torusPath finds a BFS host-switch...-host path.
func torusPath(g *topology.Graph, src, dst topology.NodeID) []topology.NodeID {
	level, _ := g.BFS(src, nil, nil)
	if level[dst] < 0 {
		return nil
	}
	path := []topology.NodeID{dst}
	cur := dst
	for cur != src {
		advanced := false
		for _, nb := range g.Neighbors(cur) {
			if level[nb] == level[cur]-1 {
				path = append(path, nb)
				cur = nb
				advanced = true
				break
			}
		}
		if !advanced {
			return nil
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	if len(path) < 3 {
		return nil
	}
	return path
}
