// Package workload generates the synthetic cell-arrival patterns used in
// the switch-scheduling experiments (paper §3; the simulation study it
// summarizes used uniform, bursty, and hotspot arrivals), and drives a
// switch under a pattern while measuring throughput and latency.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/cell"
	"repro/internal/metrics"
	"repro/internal/switchnode"
)

// Arrival is one cell arriving at a switch input in a slot.
type Arrival struct {
	Input  int
	Output int
	Cell   cell.Cell
}

// Pattern produces the arrivals for each slot. Implementations are
// deterministic given their seed.
type Pattern interface {
	// Slot returns the arrivals for slot t. The returned slice is valid
	// until the next call.
	Slot(t int64) []Arrival
	// Name identifies the pattern in experiment tables.
	Name() string
}

// vcFor assigns one virtual circuit per (input, output) pair so per-VC
// buffering sees stable circuits.
func vcFor(n, input, output int) cell.VCI {
	return cell.VCI(input*n + output + 1)
}

// Uniform is the classic i.i.d. Bernoulli pattern: each slot, each input
// receives a cell with probability Load, destined to a uniformly random
// output. This is the pattern under which FIFO saturates at 58.6%.
type Uniform struct {
	n    int
	load float64
	rng  *rand.Rand
	buf  []Arrival
}

// NewUniform creates a uniform pattern for an n-port switch at the given
// per-input load (0..1).
func NewUniform(n int, load float64, seed int64) *Uniform {
	return &Uniform{n: n, load: load, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Pattern.
func (u *Uniform) Name() string { return fmt.Sprintf("uniform(%.2f)", u.load) }

// Slot implements Pattern.
func (u *Uniform) Slot(t int64) []Arrival {
	u.buf = u.buf[:0]
	for i := 0; i < u.n; i++ {
		if u.rng.Float64() >= u.load {
			continue
		}
		j := u.rng.Intn(u.n)
		u.buf = append(u.buf, Arrival{
			Input:  i,
			Output: j,
			Cell:   cell.Cell{VC: vcFor(u.n, i, j), Stamp: cell.Stamp{EnqueuedAt: t}},
		})
	}
	return u.buf
}

// Hotspot sends a fraction of all traffic to one hot output and spreads
// the rest uniformly. LAN traffic violates the uniform-output assumption
// that makes modest-k output queueing look good (paper §3).
type Hotspot struct {
	n       int
	load    float64
	hot     int
	hotFrac float64
	rng     *rand.Rand
	buf     []Arrival
}

// NewHotspot creates a hotspot pattern: per-input load `load`, with
// probability hotFrac the destination is `hot`, else uniform.
func NewHotspot(n int, load, hotFrac float64, hot int, seed int64) *Hotspot {
	return &Hotspot{n: n, load: load, hot: hot, hotFrac: hotFrac, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Pattern.
func (h *Hotspot) Name() string {
	return fmt.Sprintf("hotspot(%.2f,%.0f%%->%d)", h.load, h.hotFrac*100, h.hot)
}

// Slot implements Pattern.
func (h *Hotspot) Slot(t int64) []Arrival {
	h.buf = h.buf[:0]
	for i := 0; i < h.n; i++ {
		if h.rng.Float64() >= h.load {
			continue
		}
		j := h.hot
		if h.rng.Float64() >= h.hotFrac {
			j = h.rng.Intn(h.n)
		}
		h.buf = append(h.buf, Arrival{
			Input:  i,
			Output: j,
			Cell:   cell.Cell{VC: vcFor(h.n, i, j), Stamp: cell.Stamp{EnqueuedAt: t}},
		})
	}
	return h.buf
}

// Bursty is an on/off source per input: bursts of geometrically
// distributed length go to a single destination, mimicking packet trains
// produced by segmentation of large packets into cells.
type Bursty struct {
	n         int
	load      float64
	meanBurst float64
	rng       *rand.Rand
	state     []burstState
	buf       []Arrival
}

type burstState struct {
	on        bool
	dest      int
	remaining int
}

// NewBursty creates a bursty pattern with the given per-input load and
// mean burst length in cells (>= 1).
func NewBursty(n int, load, meanBurst float64, seed int64) *Bursty {
	if meanBurst < 1 {
		meanBurst = 1
	}
	return &Bursty{
		n:         n,
		load:      load,
		meanBurst: meanBurst,
		rng:       rand.New(rand.NewSource(seed)),
		state:     make([]burstState, n),
	}
}

// Name implements Pattern.
func (b *Bursty) Name() string { return fmt.Sprintf("bursty(%.2f,%.0f)", b.load, b.meanBurst) }

// Slot implements Pattern.
func (b *Bursty) Slot(t int64) []Arrival {
	b.buf = b.buf[:0]
	// Off->on probability chosen so the long-run on fraction equals load:
	// on-period mean = meanBurst, so off-period mean must be
	// meanBurst*(1-load)/load.
	pOn := 1.0
	if b.load < 1 {
		offMean := b.meanBurst * (1 - b.load) / b.load
		pOn = 1 / offMean
	}
	for i := 0; i < b.n; i++ {
		st := &b.state[i]
		if !st.on {
			if b.rng.Float64() < pOn {
				st.on = true
				st.dest = b.rng.Intn(b.n)
				st.remaining = 1 + b.geometric()
			} else {
				continue
			}
		}
		b.buf = append(b.buf, Arrival{
			Input:  i,
			Output: st.dest,
			Cell:   cell.Cell{VC: vcFor(b.n, i, st.dest), Stamp: cell.Stamp{EnqueuedAt: t}},
		})
		st.remaining--
		if st.remaining <= 0 {
			st.on = false
		}
	}
	return b.buf
}

// geometric draws a geometric variate with mean meanBurst-1 (so bursts have
// mean length meanBurst including the first cell).
func (b *Bursty) geometric() int {
	if b.meanBurst <= 1 {
		return 0
	}
	p := 1 / b.meanBurst
	k := 0
	for b.rng.Float64() >= p {
		k++
		if k > 1<<16 {
			break
		}
	}
	return k
}

// Transpose sends input i's cells to output (i + N/2) mod N with the given
// load — a fixed worst-ish-case permutation used in switch-scheduling
// studies. It has zero output contention, but its fixed structure
// exercises schedulers' bias (and blocks badly in multistage fabrics).
type Transpose struct {
	n    int
	load float64
	rng  *rand.Rand
	buf  []Arrival
}

// NewTranspose creates a transpose pattern.
func NewTranspose(n int, load float64, seed int64) *Transpose {
	return &Transpose{n: n, load: load, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Pattern.
func (p *Transpose) Name() string { return fmt.Sprintf("transpose(%.2f)", p.load) }

// Slot implements Pattern.
func (p *Transpose) Slot(t int64) []Arrival {
	p.buf = p.buf[:0]
	for i := 0; i < p.n; i++ {
		if p.rng.Float64() >= p.load {
			continue
		}
		j := (i + p.n/2) % p.n
		p.buf = append(p.buf, Arrival{
			Input:  i,
			Output: j,
			Cell:   cell.Cell{VC: vcFor(p.n, i, j), Stamp: cell.Stamp{EnqueuedAt: t}},
		})
	}
	return p.buf
}

// LogDiagonal skews destinations geometrically: input i sends to output
// (i+k) mod N with probability ∝ 2^-k — mostly-local traffic with a heavy
// diagonal, a classic non-uniform pattern that breaks the independence
// assumptions favoring modest-speedup output queueing (paper §3).
type LogDiagonal struct {
	n    int
	load float64
	rng  *rand.Rand
	buf  []Arrival
}

// NewLogDiagonal creates a log-diagonal pattern.
func NewLogDiagonal(n int, load float64, seed int64) *LogDiagonal {
	return &LogDiagonal{n: n, load: load, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Pattern.
func (p *LogDiagonal) Name() string { return fmt.Sprintf("log-diagonal(%.2f)", p.load) }

// Slot implements Pattern.
func (p *LogDiagonal) Slot(t int64) []Arrival {
	p.buf = p.buf[:0]
	for i := 0; i < p.n; i++ {
		if p.rng.Float64() >= p.load {
			continue
		}
		// Geometric offset: k with probability 2^-(k+1), truncated.
		k := 0
		for k < p.n-1 && p.rng.Float64() < 0.5 {
			k++
		}
		j := (i + k) % p.n
		p.buf = append(p.buf, Arrival{
			Input:  i,
			Output: j,
			Cell:   cell.Cell{VC: vcFor(p.n, i, j), Stamp: cell.Stamp{EnqueuedAt: t}},
		})
	}
	return p.buf
}

// Result summarizes a driven run.
type Result struct {
	// Offered is arrivals per input per slot.
	Offered float64
	// Throughput is departures per output per slot (the paper's
	// normalized throughput).
	Throughput float64
	// Latency is the distribution of cell delays in slots (arrival slot
	// to departure slot).
	Latency metrics.Summary
	// Dropped is the number of cells rejected by full buffers.
	Dropped int64
	// Backlog is the number of cells still buffered at the end.
	Backlog int64
}

// Stepper is the common surface of switchnode.Switch and switchnode.Oracle
// that DriveSwitch needs.
type Stepper interface {
	Step() []switchnode.Departure
}

// DriveSwitch runs pattern through sw for the given number of slots
// (after warmup slots that are excluded from latency/throughput
// accounting) and returns measurements. enqueue abstracts over best-effort
// vs oracle enqueueing.
func DriveSwitch(sw Stepper, enqueue func(Arrival) bool, pattern Pattern, warmup, slots int64) Result {
	var lat metrics.Histogram
	var arrived, departed, dropped int64
	for t := int64(0); t < warmup+slots; t++ {
		for _, a := range pattern.Slot(t) {
			if t >= warmup {
				arrived++
			}
			if !enqueue(a) && t >= warmup {
				dropped++
			}
		}
		for _, d := range sw.Step() {
			if d.Cell.Stamp.EnqueuedAt >= warmup {
				departed++
				lat.Observe(t - d.Cell.Stamp.EnqueuedAt)
			}
		}
	}
	n := patternPorts(pattern)
	return Result{
		Offered:    float64(arrived) / float64(slots) / float64(n),
		Throughput: float64(departed) / float64(slots) / float64(n),
		Latency:    lat.Summarize(),
		Dropped:    dropped,
		Backlog:    arrived - departed - dropped,
	}
}

// patternPorts extracts the port count from the known pattern types.
func patternPorts(p Pattern) int {
	switch v := p.(type) {
	case *Uniform:
		return v.n
	case *Hotspot:
		return v.n
	case *Bursty:
		return v.n
	case *Transpose:
		return v.n
	case *LogDiagonal:
		return v.n
	default:
		return 1
	}
}

// DriveBestEffort drives a switchnode.Switch with best-effort enqueueing.
func DriveBestEffort(sw *switchnode.Switch, pattern Pattern, warmup, slots int64) Result {
	return DriveSwitch(sw, func(a Arrival) bool {
		return sw.EnqueueBestEffort(a.Input, a.Cell, a.Output)
	}, pattern, warmup, slots)
}

// DriveOracle drives a switchnode.Oracle.
func DriveOracle(o *switchnode.Oracle, pattern Pattern, warmup, slots int64) Result {
	return DriveSwitch(o, func(a Arrival) bool {
		return o.Enqueue(a.Cell, a.Output)
	}, pattern, warmup, slots)
}
