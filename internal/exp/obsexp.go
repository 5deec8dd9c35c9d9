package exp

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/cell"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/switchnode"
	"repro/internal/topology"
	"repro/internal/workload"
)

// E29: what does watching the network cost? The observability layer
// promises that its instruments are free when disabled (nil registry →
// single-branch no-ops, validated by internal/obs's micro-benchmarks and
// bench's svc_traced workload) and cheap when enabled. This experiment
// measures the whole-path ablation: the E2 fixture (a saturated 16×16
// per-VC switch) with instruments off vs on, and a 3×3-torus network run
// with instruments off / counters only / full JSONL tracing including
// per-hop events. Reported per mode: wall time, heap allocations and
// bytes per slot (each the least of three runs), and the work done — which must be bit-identical across
// modes, because observation must never perturb the simulation.

func init() {
	register(&Experiment{
		ID:    "E29",
		Title: "Observability overhead ablation: disabled / counters / full tracing",
		Claim: "a disabled obs registry costs nothing on the hot path (nil-handle no-ops, zero allocations); counters stay within a few percent; only full JSONL tracing with hop events buys its insight with measurable time, and no mode changes simulation results",
		Run:   runE29,
		Quick: true,
	})
}

// memMeasure runs f three times and returns the least of each reading:
// the wall time, and the heap allocations and bytes allocsOf counts.
func memMeasure(f func() error) (wall time.Duration, mallocs, bytes uint64, err error) {
	wall, mallocs, bytes = math.MaxInt64, math.MaxUint64, math.MaxUint64
	for range 3 {
		var w time.Duration
		m, b := allocsOf(func() {
			start := time.Now()
			err = f()
			w = time.Since(start)
		})
		if err != nil {
			return 0, 0, 0, err
		}
		wall, mallocs, bytes = min(wall, w), min(mallocs, m), min(bytes, b)
	}
	return wall, mallocs, bytes, nil
}

// runE29Switch drives the E2 fixture once with the given registry and
// returns its throughput.
func runE29Switch(seed int64, reg *obs.Registry) (float64, error) {
	sw, err := switchnode.New(switchnode.Config{
		N: switchSize, Discipline: switchnode.DisciplinePerVC, Seed: seed, Obs: reg,
	})
	if err != nil {
		return 0, err
	}
	res := workload.DriveBestEffort(sw, workload.NewUniform(switchSize, 1.0, seed+1), warmupSlots, runSlots)
	return res.Throughput, nil
}

// runE29Net drives a 3×3 torus with 6 circuits for netSlots slots and
// returns the delivered-cell count (the determinism witness).
func runE29Net(seed int64, reg *obs.Registry, tracer simnet.Tracer, hops bool) (int64, error) {
	g, err := topology.Torus(3, 3, 1)
	if err != nil {
		return 0, err
	}
	if err := topology.AttachHosts(g, 1, 1); err != nil {
		return 0, err
	}
	n, err := simnet.New(simnet.Config{
		Topology:      g,
		Switch:        switchnode.Config{FrameSlots: 64, Discipline: switchnode.DisciplinePerVC, Seed: seed},
		IngressWindow: 32,
		Obs:           reg,
		Tracer:        tracer,
		TraceHops:     hops,
	})
	if err != nil {
		return 0, err
	}
	hostOf := make(map[topology.NodeID]topology.NodeID)
	for _, h := range g.Hosts() {
		if nb := g.Neighbors(h); len(nb) == 1 {
			hostOf[nb[0]] = h
		}
	}
	paths := [][]topology.NodeID{
		{0, 1, 2}, {0, 3, 6}, {2, 5, 8}, {6, 7, 8}, {0, 1, 4, 5, 8}, {2, 1, 4, 3, 6},
	}
	var vcs []cell.VCI
	for i, p := range paths {
		full := []topology.NodeID{hostOf[p[0]]}
		full = append(full, p...)
		full = append(full, hostOf[p[len(p)-1]])
		vc := cell.VCI(i + 1)
		if _, err := n.OpenBestEffort(vc, full); err != nil {
			return 0, fmt.Errorf("E29: open %v: %w", p, err)
		}
		vcs = append(vcs, vc)
	}
	const netSlots = 6000
	for s := int64(0); s < netSlots; s++ {
		if s < netSlots-200 && s%2 == 0 {
			for _, vc := range vcs {
				if err := n.Send(vc, [cell.PayloadSize]byte{byte(vc), byte(s)}); err != nil {
					return 0, err
				}
			}
		}
		n.Step()
	}
	return n.Snapshot().Delivered, nil
}

func runE29(seed int64) ([]*metrics.Table, error) {
	st := metrics.NewTable("E29a — E2 fixture (16×16 per-VC switch, uniform saturation, 22k slots)",
		"mode", "throughput", "wall-ms", "allocs/slot", "bytes/slot")
	const switchSlots = warmupSlots + runSlots
	var baseTP float64
	for _, mode := range []struct {
		name     string
		counters bool
	}{
		{"disabled", false},
		{"counters", true},
	} {
		var tp float64
		wall, mallocs, bytes, err := memMeasure(func() (err error) {
			var reg *obs.Registry
			if mode.counters {
				reg = obs.NewRegistry()
			}
			tp, err = runE29Switch(seed, reg)
			return err
		})
		if err != nil {
			return nil, err
		}
		if !mode.counters {
			baseTP = tp
		} else if tp != baseTP {
			return nil, fmt.Errorf("E29: counters changed throughput: %v vs %v", tp, baseTP)
		}
		st.AddRow(mode.name, tp, float64(wall.Microseconds())/1000,
			float64(mallocs)/switchSlots, float64(bytes)/switchSlots)
	}

	nt := metrics.NewTable("E29b — 3×3 torus network, 6 circuits, 6k slots",
		"mode", "delivered", "wall-ms", "allocs/slot", "bytes/slot", "trace-events")
	var baseDelivered int64
	for _, mode := range []struct {
		name           string
		counters, hops bool
	}{
		{"disabled", false, false},
		{"counters", true, false},
		{"full-trace", true, true},
	} {
		var delivered, events int64
		wall, mallocs, bytes, err := memMeasure(func() (err error) {
			var reg *obs.Registry
			if mode.counters {
				reg = obs.NewRegistry()
			}
			var tracer simnet.Tracer
			var jt *simnet.JSONLTracer
			if mode.hops {
				jt = simnet.NewJSONLTracer(io.Discard)
				tracer = jt
			}
			delivered, err = runE29Net(seed, reg, tracer, mode.hops)
			if err == nil && jt != nil {
				events, err = jt.Events(), jt.Err()
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		if !mode.counters {
			baseDelivered = delivered
		} else if delivered != baseDelivered {
			return nil, fmt.Errorf("E29: %s changed delivery: %d vs %d", mode.name, delivered, baseDelivered)
		}
		nt.AddRow(mode.name, delivered, float64(wall.Microseconds())/1000,
			float64(mallocs)/6000, float64(bytes)/6000, events)
	}
	return []*metrics.Table{st, nt}, nil
}
