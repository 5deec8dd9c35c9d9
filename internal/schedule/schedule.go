// Package schedule implements AN2's guaranteed-traffic frame scheduling
// (paper §4): bandwidth reservations expressed in cells per frame, and the
// Slepian–Duguid algorithm for placing reservations into a frame schedule.
//
// A frame is a sequence of cell slots (1024 in AN2). The schedule says, for
// each slot and each input, which output (if any) receives a cell from that
// input. The Slepian–Duguid theorem guarantees that any reservation set
// that does not over-commit an input or output fits into the frame, and its
// proof yields an insertion algorithm whose cost is linear in the switch
// size and independent of the frame size.
package schedule

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// DefaultFrameSlots is AN2's frame size: reservations are based on frames
// of 1024 cell slots (paper §4).
const DefaultFrameSlots = 1024

// Conn is one scheduled crossbar connection.
type Conn struct {
	Input, Output int
}

// Move records one step of a Slepian–Duguid insertion, in the style of
// Figure 3: the connection placed or displaced and the slot it landed in.
type Move struct {
	Conn Conn
	// Slot is the slot the connection was placed into.
	Slot int
	// Displaced is the connection this move evicted from Slot (to be
	// re-placed by the next move), if any.
	Displaced *Conn
}

// Trace describes an insertion: the figure-3-style steps taken.
type Trace struct {
	// Steps counts insertion steps as Figure 3 does: the initial
	// placement is step 1, and each subsequent swap between the two
	// candidate slots is one step.
	Steps int
	// Moves is the full move list (placement plus displacements).
	Moves []Move
}

// Schedule is a frame schedule for an n×n switch. Create with New.
//
// A frame is a stack of partial permutation matrices, one per slot. The
// schedule keeps it two ways: per slot, who is connected to whom (outOf,
// inOf, what a switch stepping the slot reads), and per port, the set of
// slots where the port is free (freeIn, freeOut, what an insertion or
// removal searches). Both are maintained at the two mutation points,
// place and unplace.
type Schedule struct {
	n     int
	slots int
	// outOf[t*n+i] = output connected to input i in slot t, or -1.
	outOf []int16
	// inOf[t*n+j] = input connected to output j in slot t, or -1.
	inOf []int16
	// freeIn[i*slotWords:(i+1)*slotWords] = the bitset of slots where input
	// i is unconnected, and freeOut the same for outputs. No bit at or
	// beyond slots is ever set.
	freeIn    []uint64
	freeOut   []uint64
	slotWords int
	// rowLoad[i] / colLoad[j] = cells per frame reserved on input i /
	// output j, for admissibility checks.
	rowLoad []int
	colLoad []int
	// total = cells per frame scheduled overall, maintained at the single
	// mutation points (place/unplace) so emptiness is O(1).
	total int
	// count[t] = connections in slot t, and inputs[t*words:(t+1)*words] =
	// the bitset of inputs connected in slot t, maintained at the same two
	// points: a switch stepping slot t visits only those inputs, and knows
	// how many there are without visiting any.
	count  []int32
	inputs []uint64
	words  int
}

// New creates an empty schedule for an n×n switch with the given frame
// size in slots. n is at most math.MaxInt16: a slot's connections are
// stored as 16-bit port numbers.
func New(n, slots int) (*Schedule, error) {
	if n < 1 || n > math.MaxInt16 {
		return nil, fmt.Errorf("schedule: switch size %d", n)
	}
	if slots < 1 {
		return nil, fmt.Errorf("schedule: frame size %d", slots)
	}
	s := &Schedule{
		n:         n,
		slots:     slots,
		outOf:     make([]int16, slots*n),
		inOf:      make([]int16, slots*n),
		slotWords: (slots + 63) / 64,
		rowLoad:   make([]int, n),
		colLoad:   make([]int, n),
		count:     make([]int32, slots),
		words:     (n + 63) / 64,
	}
	s.inputs = make([]uint64, slots*s.words)
	for k := range s.outOf {
		s.outOf[k] = -1
		s.inOf[k] = -1
	}
	s.freeIn = make([]uint64, n*s.slotWords)
	for k := range s.freeIn {
		s.freeIn[k] = s.frameMask(k % s.slotWords)
	}
	s.freeOut = slices.Clone(s.freeIn)
	return s, nil
}

// FromAssignments builds a schedule from explicit slot assignments:
// at(slot, input) returns the output input sends to in that slot, or -1.
// It validates that every slot is a partial permutation. Use it to install
// an externally computed layout (e.g. a flattened nested schedule) into a
// switch.
func FromAssignments(n, slots int, at func(slot, input int) int) (*Schedule, error) {
	s, err := New(n, slots)
	if err != nil {
		return nil, err
	}
	for t := 0; t < slots; t++ {
		for i := 0; i < n; i++ {
			j := at(t, i)
			if j < 0 {
				continue
			}
			if j >= n {
				return nil, fmt.Errorf("%w: slot %d input %d -> %d", ErrBadPort, t, i, j)
			}
			if s.inOf[t*n+j] >= 0 {
				return nil, fmt.Errorf("schedule: slot %d output %d assigned twice", t, j)
			}
			s.place(t, i, j)
			s.rowLoad[i]++
			s.colLoad[j]++
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// N returns the switch size.
func (s *Schedule) N() int { return s.n }

// Slots returns the frame size.
func (s *Schedule) Slots() int { return s.slots }

// Cells returns the number of cells per frame currently scheduled across
// all pairs. 0 means the frame is empty: the guaranteed phase of a slot
// is a no-op.
func (s *Schedule) Cells() int { return s.total }

// Load returns the reserved cells/frame on (input row, output column).
func (s *Schedule) Load(input, output int) (rowLoad, colLoad int) {
	return s.rowLoad[input], s.colLoad[output]
}

// At returns the output input i sends to in slot t, or -1.
func (s *Schedule) At(t, input int) int {
	if t < 0 || t >= s.slots || input < 0 || input >= s.n {
		return -1
	}
	return int(s.outOf[t*s.n+input])
}

// CountAt returns the number of connections scheduled in slot t.
func (s *Schedule) CountAt(t int) int { return int(s.count[t]) }

// InputsAt returns the inputs connected in slot t as a bitset (bit i set iff
// At(t, i) >= 0). The slice aliases the schedule: read-only, valid until the
// next insertion or removal.
func (s *Schedule) InputsAt(t int) []uint64 {
	return s.inputs[t*s.words : (t+1)*s.words]
}

// InputAt returns the input sending to output j in slot t, or -1.
func (s *Schedule) InputAt(t, output int) int {
	if t < 0 || t >= s.slots || output < 0 || output >= s.n {
		return -1
	}
	return int(s.inOf[t*s.n+output])
}

// SlotConns returns the connections active in slot t.
func (s *Schedule) SlotConns(t int) []Conn {
	var out []Conn
	for i, j := range s.row(t) {
		if j >= 0 {
			out = append(out, Conn{Input: i, Output: int(j)})
		}
	}
	return out
}

// row returns slot t's outputs by input (outOf's slot t).
func (s *Schedule) row(t int) []int16 { return s.outOf[t*s.n : (t+1)*s.n] }

// freeSlots returns port's free-slot bitset out of freeIn or freeOut.
func (s *Schedule) freeSlots(sets []uint64, port int) []uint64 {
	return sets[port*s.slotWords : (port+1)*s.slotWords]
}

// frameMask returns the bits of word w of a free-slot set that name slots
// of the frame: all of them, except in a partial last word.
func (s *Schedule) frameMask(w int) uint64 {
	if tail := s.slots - w*64; tail < 64 {
		return 1<<uint(tail) - 1
	}
	return ^uint64(0)
}

// has reports whether bit k of the bitset is set.
func has(set []uint64, k int) bool { return set[k/64]&(1<<(uint(k)%64)) != 0 }

// Insertion errors.
var (
	ErrOvercommit = errors.New("schedule: reservation over-commits a link")
	ErrBadPort    = errors.New("schedule: port out of range")
	ErrNotFound   = errors.New("schedule: no such reservation")
)

// Insert adds a one-cell-per-frame reservation from input P to output Q
// using the Slepian–Duguid algorithm, returning the insertion trace.
//
// If some slot has both P and Q free, the reservation lands in the lowest
// such slot (one step). Otherwise it takes the lowest slot p with P free
// and the lowest slot q with Q free (they exist because the reservation
// does not over-commit either port); the connection is placed in p and
// conflicts are resolved by swapping the conflicting connections between p
// and q, at most N steps in total. Each search is a scan of the two ports'
// free-slot sets, ⌈slots/64⌉ words.
func (s *Schedule) Insert(p, q int) (Trace, error) {
	var tr Trace
	steps, err := s.insert(p, q, &tr.Moves)
	tr.Steps = steps
	return tr, err
}

// insert places one cell of P->Q and returns the steps taken. It appends
// the moves to *moves, or records none if moves is nil.
func (s *Schedule) insert(P, Q int, moves *[]Move) (steps int, err error) {
	if P < 0 || P >= s.n || Q < 0 || Q >= s.n {
		return 0, fmt.Errorf("%w: %d->%d", ErrBadPort, P, Q)
	}
	if s.rowLoad[P]+1 > s.slots || s.colLoad[Q]+1 > s.slots {
		return 0, fmt.Errorf("%w: %d->%d (row %d, col %d, frame %d)",
			ErrOvercommit, P, Q, s.rowLoad[P], s.colLoad[Q], s.slots)
	}

	// Fast path: the lowest slot where both are free.
	freeP, freeQ := s.freeSlots(s.freeIn, P), s.freeSlots(s.freeOut, Q)
	slotP, slotQ := -1, -1
	for w, fp := range freeP {
		fq := freeQ[w]
		if both := fp & fq; both != 0 {
			t := w*64 + bits.TrailingZeros64(both)
			s.place(t, P, Q)
			s.rowLoad[P]++
			s.colLoad[Q]++
			if moves != nil {
				*moves = append(*moves, Move{Conn: Conn{P, Q}, Slot: t})
			}
			return 1, nil
		}
		if fp != 0 && slotP < 0 {
			slotP = w*64 + bits.TrailingZeros64(fp)
		}
		if fq != 0 && slotQ < 0 {
			slotQ = w*64 + bits.TrailingZeros64(fq)
		}
	}
	// Admissibility guarantees both exist.
	if slotP < 0 || slotQ < 0 {
		return 0, fmt.Errorf("%w: internal: no free slot for %d->%d", ErrOvercommit, P, Q)
	}

	// Swap loop over the two slots, in the style of Figure 3. `pending`
	// is the connection that must be placed next, and `slot` the slot it
	// must go into. Each figure-style step is at most two loop
	// iterations (an output-conflict displacement into one slot followed
	// by an input-conflict displacement back), and there are at most N
	// steps, so 2N+2 iterations always suffice.
	pending := Conn{P, Q}
	slot := slotP
	other := slotQ
	for iter := 0; iter <= 2*s.n+2; iter++ {
		// Conflicts in `slot` for `pending`: at most one of (same input,
		// same output) — the input conflict only arises for displaced
		// connections, never both at once.
		inConflict := int(s.outOf[slot*s.n+pending.Input])
		outConflict := int(s.inOf[slot*s.n+pending.Output])
		if inConflict < 0 && outConflict < 0 {
			s.place(slot, pending.Input, pending.Output)
			if moves != nil {
				*moves = append(*moves, Move{Conn: pending, Slot: slot})
			}
			s.rowLoad[P]++
			s.colLoad[Q]++
			return steps + 1, nil
		}
		// Displace the conflicting connection to the other slot. An output
		// conflict (outConflict -> pending.Output) is a new figure-3 step;
		// an input conflict (pending.Input -> its old output) continues the
		// same step (the "swap").
		victim := Conn{pending.Input, inConflict}
		if outConflict >= 0 {
			victim = Conn{outConflict, pending.Output}
			steps++
		}
		s.unplace(slot, victim.Input, victim.Output)
		s.place(slot, pending.Input, pending.Output)
		if moves != nil {
			displaced := victim
			*moves = append(*moves, Move{Conn: pending, Slot: slot, Displaced: &displaced})
		}
		pending = victim
		slot, other = other, slot
	}
	return steps, fmt.Errorf("schedule: insertion did not terminate in %d iterations (bug)", 2*s.n+2)
}

// place and unplace are the only two mutation points of the slot arrays,
// the per-slot counts and input sets, and the per-port free-slot sets.
func (s *Schedule) place(t, i, j int) {
	s.outOf[t*s.n+i] = int16(j)
	s.inOf[t*s.n+j] = int16(i)
	s.total++
	s.count[t]++
	s.inputs[t*s.words+i/64] |= 1 << (uint(i) % 64)
	bit := uint64(1) << (uint(t) % 64)
	s.freeIn[i*s.slotWords+t/64] &^= bit
	s.freeOut[j*s.slotWords+t/64] &^= bit
}

func (s *Schedule) unplace(t, i, j int) {
	s.outOf[t*s.n+i] = -1
	s.inOf[t*s.n+j] = -1
	s.total--
	s.count[t]--
	s.inputs[t*s.words+i/64] &^= 1 << (uint(i) % 64)
	bit := uint64(1) << (uint(t) % 64)
	s.freeIn[i*s.slotWords+t/64] |= bit
	s.freeOut[j*s.slotWords+t/64] |= bit
}

// InsertK adds a k-cell-per-frame reservation, one cell at a time, and
// returns the summed Slepian–Duguid steps: at most N×k (paper §4). It
// records no moves; Insert returns them for one cell. InsertK is atomic: if
// the reservation would over-commit either port, no cells are placed.
func (s *Schedule) InsertK(p, q, k int) (steps int, err error) {
	if p < 0 || p >= s.n || q < 0 || q >= s.n {
		return 0, fmt.Errorf("%w: %d->%d", ErrBadPort, p, q)
	}
	if s.rowLoad[p]+k > s.slots || s.colLoad[q]+k > s.slots {
		return 0, fmt.Errorf("%w: %d cells %d->%d (row %d, col %d, frame %d)",
			ErrOvercommit, k, p, q, s.rowLoad[p], s.colLoad[q], s.slots)
	}
	for c := 0; c < k; c++ {
		n, err := s.insert(p, q, nil)
		if err != nil {
			return steps, fmt.Errorf("cell %d of %d: %w", c+1, k, err)
		}
		steps += n
	}
	return steps, nil
}

// Remove deletes one scheduled cell of the reservation (p,q), freeing its
// slot. It removes from the highest-numbered slot serving the pair,
// visiting only the slots where input p is busy.
func (s *Schedule) Remove(p, q int) error {
	if p < 0 || p >= s.n || q < 0 || q >= s.n {
		return fmt.Errorf("%w: %d->%d", ErrBadPort, p, q)
	}
	freeP := s.freeSlots(s.freeIn, p)
	for w := s.slotWords - 1; w >= 0; w-- {
		for busy := ^freeP[w] & s.frameMask(w); busy != 0; {
			b := 63 - bits.LeadingZeros64(busy)
			if t := w*64 + b; int(s.outOf[t*s.n+p]) == q {
				s.unplace(t, p, q)
				s.rowLoad[p]--
				s.colLoad[q]--
				return nil
			}
			busy &^= 1 << uint(b)
		}
	}
	return fmt.Errorf("%w: %d->%d", ErrNotFound, p, q)
}

// RemoveAll deletes every scheduled cell of the pair, returning the count.
func (s *Schedule) RemoveAll(p, q int) int {
	n := 0
	for s.Remove(p, q) == nil {
		n++
	}
	return n
}

// Reservations returns the matrix of cells/frame currently scheduled:
// m[i][j] = cells per frame from input i to output j (Figure 2's top
// table).
func (s *Schedule) Reservations() [][]int {
	m := make([][]int, s.n)
	for i := range m {
		m[i] = make([]int, s.n)
	}
	for k, j := range s.outOf {
		if j >= 0 {
			m[k%s.n][j]++
		}
	}
	return m
}

// Validate checks internal consistency: each slot is a partial permutation,
// its connection count and connected-input bitset describe exactly the
// inputs it connects, each port's free-slot set holds exactly the slots of
// the frame where the port is unconnected, and the row/column loads and the
// frame total match the placed connections. It allocates nothing.
func (s *Schedule) Validate() error {
	total := 0
	for t := 0; t < s.slots; t++ {
		placed, marked := 0, 0
		for _, w := range s.InputsAt(t) {
			marked += bits.OnesCount64(w)
		}
		for i, j := range s.row(t) {
			if inSet := has(s.InputsAt(t), i); inSet != (j >= 0) {
				return fmt.Errorf("schedule: slot %d input %d: connected=%v but input-set bit=%v", t, i, j >= 0, inSet)
			}
			if free := has(s.freeSlots(s.freeIn, i), t); free != (j < 0) {
				return fmt.Errorf("schedule: slot %d input %d: connected=%v but free-slot bit=%v", t, i, j >= 0, free)
			}
			if j < 0 {
				continue
			}
			placed++
			// Also catches two inputs sharing output j: inOf names one.
			if int(j) >= s.n || int(s.inOf[t*s.n+int(j)]) != i {
				return fmt.Errorf("schedule: slot %d inverse index broken at %d->%d", t, i, j)
			}
		}
		for j, i := range s.inOf[t*s.n : (t+1)*s.n] {
			if free := has(s.freeSlots(s.freeOut, j), t); free != (i < 0) {
				return fmt.Errorf("schedule: slot %d output %d: connected=%v but free-slot bit=%v", t, j, i >= 0, free)
			}
			if i >= 0 && (int(i) >= s.n || int(s.outOf[t*s.n+int(i)]) != j) {
				return fmt.Errorf("schedule: slot %d forward index broken at %d->%d", t, i, j)
			}
		}
		if s.CountAt(t) != placed || marked != placed {
			return fmt.Errorf("schedule: slot %d connects %d inputs, count says %d, input set holds %d", t, placed, s.CountAt(t), marked)
		}
		total += placed
	}
	if total != s.total {
		return fmt.Errorf("schedule: frame total %d, placed %d", s.total, total)
	}
	// The free bits agree with the slot arrays inside the frame, so a
	// port's load is the number of frame slots missing from its set.
	for i := 0; i < s.n; i++ {
		rows, cols := 0, 0
		for w := 0; w < s.slotWords; w++ {
			in, out, mask := s.freeSlots(s.freeIn, i)[w], s.freeSlots(s.freeOut, i)[w], s.frameMask(w)
			if (in|out)&^mask != 0 {
				return fmt.Errorf("schedule: port %d: free-slot bit set beyond the %d-slot frame", i, s.slots)
			}
			rows += bits.OnesCount64(^in & mask)
			cols += bits.OnesCount64(^out & mask)
		}
		if rows != s.rowLoad[i] {
			return fmt.Errorf("schedule: row %d load %d, placed %d", i, s.rowLoad[i], rows)
		}
		if cols != s.colLoad[i] {
			return fmt.Errorf("schedule: col %d load %d, placed %d", i, s.colLoad[i], cols)
		}
	}
	return nil
}

// FreePairs reports, for slot t, whether input i and output j are both
// unreserved — the condition for a best-effort cell to use the slot
// (paper §4).
func (s *Schedule) FreePairs(t, input, output int) bool {
	if t < 0 || t >= s.slots || input < 0 || input >= s.n || output < 0 || output >= s.n {
		return false
	}
	return has(s.freeSlots(s.freeIn, input), t) && has(s.freeSlots(s.freeOut, output), t)
}
