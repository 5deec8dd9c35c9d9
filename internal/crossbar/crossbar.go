// Package crossbar models the AN2 switch's internal fabric: a 16×16
// crossbar that operates synchronously, routing up to 16 cells in parallel
// during each time slot (paper §1). The crossbar was chosen over
// multi-stage fabrics for its low latency; its N² cost is acceptable at
// LAN-scale sizes.
package crossbar

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/cell"
	"repro/internal/matching"
)

// DefaultSize is the AN2 crossbar size.
const DefaultSize = 16

// Crossbar is an N×N space-division fabric. It is configured with a
// matching each slot and transfers at most one cell per input and per
// output.
type Crossbar struct {
	n int
	// config[i] is the output input i is connected to this slot, or -1.
	config []int
	// inWords and busyWords are the connected inputs and the connected
	// outputs as bitsets (bit i set iff config[i] >= 0; bit j set iff some
	// config[i] == j). connect is the only place a connection is made, so
	// the three always agree; Reset undoes exactly the inputs in inWords.
	inWords   []uint64
	busyWords []uint64
	// transferred counts cells moved across the fabric over its lifetime.
	transferred int64
}

// New creates an n×n crossbar.
func New(n int) *Crossbar {
	c := &Crossbar{
		n:         n,
		config:    make([]int, n),
		inWords:   make([]uint64, matching.WordsFor(n)),
		busyWords: make([]uint64, matching.WordsFor(n)),
	}
	for i := range c.config {
		c.config[i] = -1
	}
	return c
}

// N returns the fabric size.
func (c *Crossbar) N() int { return c.n }

// Transferred returns the lifetime count of cells moved.
func (c *Crossbar) Transferred() int64 { return c.transferred }

// Reset clears the slot configuration (start of each time slot). It costs
// the connections made since the last Reset, not the port count.
func (c *Crossbar) Reset() {
	for w, word := range c.inWords {
		for ; word != 0; word &= word - 1 {
			c.config[w*64+bits.TrailingZeros64(word)] = -1
		}
		c.inWords[w], c.busyWords[w] = 0, 0
	}
}

// connect records input i -> output j in all three representations.
func (c *Crossbar) connect(i, j int) {
	c.config[i] = j
	c.inWords[i/64] |= 1 << (uint(i) % 64)
	c.busyWords[j/64] |= 1 << (uint(j) % 64)
}

// OutputBusyWords returns the connected-output bitset (bit j set iff
// output j is connected this slot). The slice is owned by the crossbar:
// read-only, valid until the next Reset/Configure/ConnectOne.
func (c *Crossbar) OutputBusyWords() []uint64 { return c.busyWords }

// ConnectedInputWords returns the connected-input bitset (bit i set iff
// Connected(i) >= 0), under the same ownership rule as OutputBusyWords.
func (c *Crossbar) ConnectedInputWords() []uint64 { return c.inWords }

// Configuration errors.
var (
	ErrSizeMismatch = errors.New("crossbar: matching size mismatch")
	ErrOutputBusy   = errors.New("crossbar: output connected twice")
	ErrNotConnected = errors.New("crossbar: input not connected to output")
)

// Configure sets the slot's connection pattern from a matching. It rejects
// matchings that would connect an output twice — the hardware invariant the
// grant phase of PIM maintains. A rejected matching leaves the connections
// made before the offending pair, consistently recorded; Reset clears them.
func (c *Crossbar) Configure(m matching.Matching) error {
	if len(m) != c.n {
		return fmt.Errorf("%w: %d for %d×%d fabric", ErrSizeMismatch, len(m), c.n, c.n)
	}
	c.Reset()
	for i, j := range m {
		if j < 0 {
			continue
		}
		if j >= c.n {
			return fmt.Errorf("%w: output %d", ErrSizeMismatch, j)
		}
		if c.OutputBusy(j) {
			return fmt.Errorf("%w: output %d", ErrOutputBusy, j)
		}
		c.connect(i, j)
	}
	return nil
}

// ConnectOne adds a single connection (used for guaranteed slots, where the
// frame schedule — not a matching — drives the fabric).
func (c *Crossbar) ConnectOne(input, output int) error {
	if input < 0 || input >= c.n || output < 0 || output >= c.n {
		return fmt.Errorf("%w: %d->%d", ErrSizeMismatch, input, output)
	}
	if c.config[input] >= 0 {
		return fmt.Errorf("crossbar: input %d connected twice", input)
	}
	if c.OutputBusy(output) {
		return fmt.Errorf("%w: output %d", ErrOutputBusy, output)
	}
	c.connect(input, output)
	return nil
}

// Connected returns the output input i is connected to this slot (-1 none).
func (c *Crossbar) Connected(input int) int {
	if input < 0 || input >= c.n {
		return -1
	}
	return c.config[input]
}

// OutputBusy reports whether output j is connected this slot.
func (c *Crossbar) OutputBusy(output int) bool {
	return output >= 0 && output < c.n && c.busyWords[output/64]&(1<<(uint(output)%64)) != 0
}

// InputFree reports whether input i is unconnected this slot.
func (c *Crossbar) InputFree(input int) bool {
	return input >= 0 && input < c.n && c.config[input] < 0
}

// Transfer moves a cell from input to output, which must be connected this
// slot. It returns the output port the cell left on.
func (c *Crossbar) Transfer(input int, cl *cell.Cell) (int, error) {
	if input < 0 || input >= c.n || c.config[input] < 0 {
		return -1, fmt.Errorf("%w: input %d", ErrNotConnected, input)
	}
	c.transferred++
	return c.config[input], nil
}
