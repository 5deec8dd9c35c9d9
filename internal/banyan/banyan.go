// Package banyan models the multistage interconnection fabric AN2 chose
// NOT to build (paper §1):
//
//	"The crossbar has low latency compared to a multi-stage fabric like a
//	 banyan, and this is the reason it was chosen for AN2. Crossbars do
//	 not scale well, however: their complexity grows as N² for an N×N
//	 switch, while a banyan grows as N log N."
//
// The model is a baseline butterfly of log2(N) stages of 2×2 switching
// elements. Between any input and output there is exactly one path, so
// two cells whose paths share a wire conflict *inside* the fabric even
// when they target different outputs — the internal blocking a crossbar
// never exhibits. Conflicts are resolved uniformly at random; losers stay
// queued at their inputs and retry.
package banyan

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Banyan is an N×N butterfly fabric, N a power of two.
type Banyan struct {
	n      int
	stages int
	rng    *rand.Rand

	// scratch, reused across slots.
	value  []int
	alive  []bool
	owners [][]int // owners[wire] = inputs contending for it this stage

	stats Stats
}

// Stats counts fabric activity.
type Stats struct {
	Offered         int64
	Passed          int64
	InternalBlocked int64 // cells lost a wire to another cell bound elsewhere
	OutputBlocked   int64 // cells that collided on the final (output) wire
}

// New creates an n×n banyan (n must be a power of two, >= 2).
func New(n int, seed int64) (*Banyan, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("banyan: size %d is not a power of two", n)
	}
	return &Banyan{
		n:      n,
		stages: bits.Len(uint(n)) - 1,
		rng:    rand.New(rand.NewSource(seed)),
		value:  make([]int, n),
		alive:  make([]bool, n),
		owners: make([][]int, n),
	}, nil
}

// N returns the port count.
func (b *Banyan) N() int { return b.n }

// Crosspoints returns the hardware cost in 2×2-element crosspoints:
// (N/2)·log2(N) elements of 4 crosspoints each — the N log N scaling the
// paper cites (a crossbar is N²).
func (b *Banyan) Crosspoints() int { return (b.n / 2) * b.stages * 4 }

// Stats returns a copy of the counters.
func (b *Banyan) Stats() Stats { return b.stats }

// Route presents one cell per input for a slot: dest[i] is input i's
// desired output, or -1 for idle. It returns which inputs' cells traversed
// the fabric (the rest were blocked internally or at the output and must
// retry). Conflicts on every wire are resolved uniformly at random.
func (b *Banyan) Route(dest []int) []bool {
	if len(dest) != b.n {
		return make([]bool, len(dest))
	}
	granted := make([]bool, b.n)
	for i := 0; i < b.n; i++ {
		b.value[i] = i
		b.alive[i] = dest[i] >= 0 && dest[i] < b.n
		if b.alive[i] {
			b.stats.Offered++
		}
	}
	for s := 0; s < b.stages; s++ {
		// After stage s the wire is identified by the current value with
		// bit (stages-1-s) replaced by the destination's bit.
		bit := b.stages - 1 - s
		for w := range b.owners {
			b.owners[w] = b.owners[w][:0]
		}
		for i := 0; i < b.n; i++ {
			if !b.alive[i] {
				continue
			}
			v := (b.value[i] &^ (1 << bit)) | (dest[i] & (1 << bit))
			b.value[i] = v
			b.owners[v] = append(b.owners[v], i)
		}
		// Ascending wire order: the RNG draws in the same sequence every run.
		for _, group := range b.owners {
			if len(group) < 2 {
				continue
			}
			keep := group[b.rng.Intn(len(group))]
			for _, i := range group {
				if i == keep {
					continue
				}
				b.alive[i] = false
				if s == b.stages-1 {
					b.stats.OutputBlocked++
				} else {
					b.stats.InternalBlocked++
				}
			}
		}
	}
	for i := 0; i < b.n; i++ {
		if b.alive[i] {
			granted[i] = true
			b.stats.Passed++
		}
	}
	return granted
}
