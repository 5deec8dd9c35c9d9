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
	"math/bits"
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
type Schedule struct {
	n     int
	slots int
	// outOf[s][i] = output connected to input i in slot s, or -1.
	outOf [][]int
	// inOf[s][j] = input connected to output j in slot s, or -1.
	inOf [][]int
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
// size in slots.
func New(n, slots int) (*Schedule, error) {
	if n < 1 {
		return nil, fmt.Errorf("schedule: switch size %d", n)
	}
	if slots < 1 {
		return nil, fmt.Errorf("schedule: frame size %d", slots)
	}
	s := &Schedule{
		n:       n,
		slots:   slots,
		outOf:   make([][]int, slots),
		inOf:    make([][]int, slots),
		rowLoad: make([]int, n),
		colLoad: make([]int, n),
		count:   make([]int32, slots),
		words:   (n + 63) / 64,
	}
	s.inputs = make([]uint64, slots*s.words)
	for t := 0; t < slots; t++ {
		s.outOf[t] = make([]int, n)
		s.inOf[t] = make([]int, n)
		for i := 0; i < n; i++ {
			s.outOf[t][i] = -1
			s.inOf[t][i] = -1
		}
	}
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
			if s.inOf[t][j] >= 0 {
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
	return s.outOf[t][input]
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
	return s.inOf[t][output]
}

// SlotConns returns the connections active in slot t.
func (s *Schedule) SlotConns(t int) []Conn {
	var out []Conn
	for i, j := range s.outOf[t] {
		if j >= 0 {
			out = append(out, Conn{Input: i, Output: j})
		}
	}
	return out
}

// Insertion errors.
var (
	ErrOvercommit = errors.New("schedule: reservation over-commits a link")
	ErrBadPort    = errors.New("schedule: port out of range")
	ErrNotFound   = errors.New("schedule: no such reservation")
)

// Insert adds a one-cell-per-frame reservation from input P to output Q
// using the Slepian–Duguid algorithm, returning the insertion trace.
//
// If some slot has both P and Q free, the reservation lands there (one
// step). Otherwise there is a slot p with P free and a slot q with Q free
// (they exist because the reservation does not over-commit either port);
// the connection is placed in p and conflicts are resolved by swapping the
// conflicting connections between p and q, at most N steps in total.
func (s *Schedule) Insert(p, q int) (Trace, error) {
	return s.insert(p, q)
}

func (s *Schedule) insert(P, Q int) (Trace, error) {
	var tr Trace
	if P < 0 || P >= s.n || Q < 0 || Q >= s.n {
		return tr, fmt.Errorf("%w: %d->%d", ErrBadPort, P, Q)
	}
	if s.rowLoad[P]+1 > s.slots || s.colLoad[Q]+1 > s.slots {
		return tr, fmt.Errorf("%w: %d->%d (row %d, col %d, frame %d)",
			ErrOvercommit, P, Q, s.rowLoad[P], s.colLoad[Q], s.slots)
	}

	// Fast path: a slot where both are free.
	slotP, slotQ := -1, -1
	for t := 0; t < s.slots; t++ {
		pFree := s.outOf[t][P] < 0
		qFree := s.inOf[t][Q] < 0
		if pFree && qFree {
			s.place(t, P, Q)
			s.rowLoad[P]++
			s.colLoad[Q]++
			tr.Steps = 1
			tr.Moves = append(tr.Moves, Move{Conn: Conn{P, Q}, Slot: t})
			return tr, nil
		}
		if pFree && slotP < 0 {
			slotP = t
		}
		if qFree && slotQ < 0 {
			slotQ = t
		}
	}
	// Admissibility guarantees both exist.
	if slotP < 0 || slotQ < 0 {
		return tr, fmt.Errorf("%w: internal: no free slot for %d->%d", ErrOvercommit, P, Q)
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
	tr.Steps = 0
	for iter := 0; iter <= 2*s.n+2; iter++ {
		// Conflicts in `slot` for `pending`: at most one of (same input,
		// same output) — the input conflict only arises for displaced
		// connections, never both at once.
		inConflict := s.outOf[slot][pending.Input]
		outConflict := s.inOf[slot][pending.Output]
		switch {
		case inConflict < 0 && outConflict < 0:
			s.place(slot, pending.Input, pending.Output)
			tr.Moves = append(tr.Moves, Move{Conn: pending, Slot: slot})
			tr.Steps++
			s.rowLoad[P]++
			s.colLoad[Q]++
			return tr, nil
		case outConflict >= 0:
			// Displace (outConflict -> pending.Output) to the other slot.
			victim := Conn{outConflict, pending.Output}
			s.unplace(slot, victim.Input, victim.Output)
			s.place(slot, pending.Input, pending.Output)
			tr.Moves = append(tr.Moves, Move{Conn: pending, Slot: slot, Displaced: &victim})
			tr.Steps++
			pending = victim
			slot, other = other, slot
		default:
			// Input conflict: displace (pending.Input -> old output).
			victim := Conn{pending.Input, inConflict}
			s.unplace(slot, victim.Input, victim.Output)
			s.place(slot, pending.Input, pending.Output)
			tr.Moves = append(tr.Moves, Move{Conn: pending, Slot: slot, Displaced: &victim})
			// An input-conflict resolution continues the same figure-3
			// step (the "swap"): do not increment Steps.
			pending = victim
			slot, other = other, slot
		}
	}
	return tr, fmt.Errorf("schedule: insertion did not terminate in %d iterations (bug)", 2*s.n+2)
}

func (s *Schedule) place(t, i, j int) {
	s.outOf[t][i] = j
	s.inOf[t][j] = i
	s.total++
	s.count[t]++
	s.inputs[t*s.words+i/64] |= 1 << (uint(i) % 64)
}

func (s *Schedule) unplace(t, i, j int) {
	s.outOf[t][i] = -1
	s.inOf[t][j] = -1
	s.total--
	s.count[t]--
	s.inputs[t*s.words+i/64] &^= 1 << (uint(i) % 64)
}

// InsertK adds a k-cell-per-frame reservation, one cell at a time. The
// total cost is at most N×k steps (paper §4). It returns the summed trace.
// InsertK is atomic: if the reservation would over-commit either port, no
// cells are placed.
func (s *Schedule) InsertK(p, q, k int) (Trace, error) {
	var total Trace
	if p < 0 || p >= s.n || q < 0 || q >= s.n {
		return total, fmt.Errorf("%w: %d->%d", ErrBadPort, p, q)
	}
	if s.rowLoad[p]+k > s.slots || s.colLoad[q]+k > s.slots {
		return total, fmt.Errorf("%w: %d cells %d->%d (row %d, col %d, frame %d)",
			ErrOvercommit, k, p, q, s.rowLoad[p], s.colLoad[q], s.slots)
	}
	for c := 0; c < k; c++ {
		tr, err := s.insert(p, q)
		if err != nil {
			return total, fmt.Errorf("cell %d of %d: %w", c+1, k, err)
		}
		total.Steps += tr.Steps
		total.Moves = append(total.Moves, tr.Moves...)
	}
	return total, nil
}

// Remove deletes one scheduled cell of the reservation (p,q), freeing its
// slot. It removes from the highest-numbered slot serving the pair.
func (s *Schedule) Remove(p, q int) error {
	if p < 0 || p >= s.n || q < 0 || q >= s.n {
		return fmt.Errorf("%w: %d->%d", ErrBadPort, p, q)
	}
	for t := s.slots - 1; t >= 0; t-- {
		if s.outOf[t][p] == q {
			s.unplace(t, p, q)
			s.rowLoad[p]--
			s.colLoad[q]--
			return nil
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
	for t := 0; t < s.slots; t++ {
		for i, j := range s.outOf[t] {
			if j >= 0 {
				m[i][j]++
			}
		}
	}
	return m
}

// Validate checks internal consistency: each slot is a partial permutation,
// its connection count and connected-input bitset describe exactly the
// inputs it connects, and the row/column loads and the frame total match the
// placed connections.
func (s *Schedule) Validate() error {
	rows := make([]int, s.n)
	cols := make([]int, s.n)
	total := 0
	for t := 0; t < s.slots; t++ {
		seenOut := make(map[int]int)
		placed, marked := 0, 0
		for _, w := range s.InputsAt(t) {
			marked += bits.OnesCount64(w)
		}
		for i, j := range s.outOf[t] {
			if inSet := s.inputs[t*s.words+i/64]&(1<<(uint(i)%64)) != 0; inSet != (j >= 0) {
				return fmt.Errorf("schedule: slot %d input %d: connected=%v but input-set bit=%v", t, i, j >= 0, inSet)
			}
			if j < 0 {
				continue
			}
			placed++
			if prev, dup := seenOut[j]; dup {
				return fmt.Errorf("schedule: slot %d outputs %d used by inputs %d and %d", t, j, prev, i)
			}
			seenOut[j] = i
			if s.inOf[t][j] != i {
				return fmt.Errorf("schedule: slot %d inverse index broken at %d->%d", t, i, j)
			}
			rows[i]++
			cols[j]++
		}
		for j, i := range s.inOf[t] {
			if i >= 0 && s.outOf[t][i] != j {
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
	for i := 0; i < s.n; i++ {
		if rows[i] != s.rowLoad[i] {
			return fmt.Errorf("schedule: row %d load %d, placed %d", i, s.rowLoad[i], rows[i])
		}
		if cols[i] != s.colLoad[i] {
			return fmt.Errorf("schedule: col %d load %d, placed %d", i, s.colLoad[i], cols[i])
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
	return s.outOf[t][input] < 0 && s.inOf[t][output] < 0
}
