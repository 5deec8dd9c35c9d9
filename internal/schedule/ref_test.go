package schedule

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refSchedule is the slices-of-slices frame schedule Schedule replaced, kept
// as the reference model: two slots × n tables, an insertion whose fast path
// scans every slot for one where both ports are free (noting the first slot
// where each is free on the way), and a removal that scans every slot from
// the top.
type refSchedule struct {
	n, slots int
	outOf    [][]int // outOf[t][i] = output of input i in slot t, or -1
	inOf     [][]int // inOf[t][j] = input of output j in slot t, or -1
	rowLoad  []int
	colLoad  []int
}

func newRef(n, slots int) *refSchedule {
	r := &refSchedule{n: n, slots: slots, outOf: make([][]int, slots), inOf: make([][]int, slots),
		rowLoad: make([]int, n), colLoad: make([]int, n)}
	for t := 0; t < slots; t++ {
		r.outOf[t] = make([]int, n)
		r.inOf[t] = make([]int, n)
		for i := 0; i < n; i++ {
			r.outOf[t][i] = -1
			r.inOf[t][i] = -1
		}
	}
	return r
}

func (r *refSchedule) place(t, i, j int)   { r.outOf[t][i], r.inOf[t][j] = j, i }
func (r *refSchedule) unplace(t, i, j int) { r.outOf[t][i], r.inOf[t][j] = -1, -1 }

func (r *refSchedule) insert(P, Q int) (Trace, error) {
	var tr Trace
	if P < 0 || P >= r.n || Q < 0 || Q >= r.n {
		return tr, fmt.Errorf("%w: %d->%d", ErrBadPort, P, Q)
	}
	if r.rowLoad[P]+1 > r.slots || r.colLoad[Q]+1 > r.slots {
		return tr, fmt.Errorf("%w: %d->%d", ErrOvercommit, P, Q)
	}
	slotP, slotQ := -1, -1
	for t := 0; t < r.slots; t++ {
		pFree := r.outOf[t][P] < 0
		qFree := r.inOf[t][Q] < 0
		if pFree && qFree {
			r.place(t, P, Q)
			r.rowLoad[P]++
			r.colLoad[Q]++
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
	pending := Conn{P, Q}
	slot, other := slotP, slotQ
	for iter := 0; iter <= 2*r.n+2; iter++ {
		inConflict := r.outOf[slot][pending.Input]
		outConflict := r.inOf[slot][pending.Output]
		switch {
		case inConflict < 0 && outConflict < 0:
			r.place(slot, pending.Input, pending.Output)
			tr.Moves = append(tr.Moves, Move{Conn: pending, Slot: slot})
			tr.Steps++
			r.rowLoad[P]++
			r.colLoad[Q]++
			return tr, nil
		case outConflict >= 0:
			victim := Conn{outConflict, pending.Output}
			r.unplace(slot, victim.Input, victim.Output)
			r.place(slot, pending.Input, pending.Output)
			tr.Moves = append(tr.Moves, Move{Conn: pending, Slot: slot, Displaced: &victim})
			tr.Steps++
			pending = victim
			slot, other = other, slot
		default:
			victim := Conn{pending.Input, inConflict}
			r.unplace(slot, victim.Input, victim.Output)
			r.place(slot, pending.Input, pending.Output)
			tr.Moves = append(tr.Moves, Move{Conn: pending, Slot: slot, Displaced: &victim})
			pending = victim
			slot, other = other, slot
		}
	}
	return tr, fmt.Errorf("reference insertion did not terminate")
}

// remove returns the slot it freed, or -1.
func (r *refSchedule) remove(p, q int) int {
	for t := r.slots - 1; t >= 0; t-- {
		if r.outOf[t][p] == q {
			r.unplace(t, p, q)
			r.rowLoad[p]--
			r.colLoad[q]--
			return t
		}
	}
	return -1
}

func (r *refSchedule) reservations() [][]int {
	m := make([][]int, r.n)
	for i := range m {
		m[i] = make([]int, r.n)
	}
	for t := 0; t < r.slots; t++ {
		for i, j := range r.outOf[t] {
			if j >= 0 {
				m[i][j]++
			}
		}
	}
	return m
}

// refOp is one operation of a differential run: insert (one cell, with its
// trace), insertK (k cells, steps only) or remove, on the pair (p, q).
type refOp struct {
	kind    int // 0 insert, 1 insertK, 2 remove
	p, q, k int
}

// checkAgainstRef applies op to both schedules and reports the first
// difference: the operation's outcome (error, steps, moves, the slot a
// removal frees), then every slot through At/InputAt/CountAt/InputsAt and
// FreePairs, the reservation matrix, and Validate. It reports whether an
// insertion went beyond the fast path.
func checkAgainstRef(s *Schedule, r *refSchedule, op refOp) (swapped bool, err error) {
	switch op.kind {
	case 0:
		got, err := s.Insert(op.p, op.q)
		want, refErr := r.insert(op.p, op.q)
		if (err == nil) != (refErr == nil) {
			return false, fmt.Errorf("insert %d->%d: err %v, reference %v", op.p, op.q, err, refErr)
		}
		if !reflect.DeepEqual(got, want) {
			return false, fmt.Errorf("insert %d->%d: trace %+v, reference %+v", op.p, op.q, got, want)
		}
		swapped = got.Steps > 1
	case 1:
		steps, err := s.InsertK(op.p, op.q, op.k)
		want, refErr := 0, error(nil)
		if r.rowLoad[op.p]+op.k > r.slots || r.colLoad[op.q]+op.k > r.slots {
			refErr = ErrOvercommit
		}
		for c := 0; c < op.k && refErr == nil; c++ {
			tr, err := r.insert(op.p, op.q)
			want, refErr = want+tr.Steps, err
		}
		if (err == nil) != (refErr == nil) || steps != want {
			return false, fmt.Errorf("insertK %d->%d x%d: %d steps err %v, reference %d err %v", op.p, op.q, op.k, steps, err, want, refErr)
		}
		swapped = err == nil && steps > op.k
	case 2:
		// Both free the highest slot serving the pair: the slot-by-slot
		// comparison below catches a different choice.
		err := s.Remove(op.p, op.q)
		if t := r.remove(op.p, op.q); (err == nil) != (t >= 0) {
			return false, fmt.Errorf("remove %d->%d: err %v, reference freed slot %d", op.p, op.q, err, t)
		}
	}
	for t := 0; t < r.slots; t++ {
		count, inputs := 0, make([]uint64, (r.n+63)/64)
		for i := 0; i < r.n; i++ {
			if got, want := s.At(t, i), r.outOf[t][i]; got != want {
				return false, fmt.Errorf("slot %d: At(input %d) = %d, reference %d", t, i, got, want)
			}
			if got, want := s.InputAt(t, i), r.inOf[t][i]; got != want {
				return false, fmt.Errorf("slot %d: InputAt(output %d) = %d, reference %d", t, i, got, want)
			}
			if r.outOf[t][i] >= 0 {
				count++
				inputs[i/64] |= 1 << (uint(i) % 64)
			}
		}
		if got := s.CountAt(t); got != count {
			return false, fmt.Errorf("slot %d: CountAt = %d, reference %d", t, got, count)
		}
		if got := s.InputsAt(t); !reflect.DeepEqual(got, inputs) {
			return false, fmt.Errorf("slot %d: InputsAt = %x, reference %x", t, got, inputs)
		}
		for _, pair := range [][2]int{{op.p, op.q}, {t % r.n, (t + 1) % r.n}} {
			want := r.outOf[t][pair[0]] < 0 && r.inOf[t][pair[1]] < 0
			if got := s.FreePairs(t, pair[0], pair[1]); got != want {
				return false, fmt.Errorf("slot %d: FreePairs(%d, %d) = %v, reference %v", t, pair[0], pair[1], got, want)
			}
		}
	}
	if got, want := s.Reservations(), r.reservations(); !reflect.DeepEqual(got, want) {
		return false, fmt.Errorf("Reservations = %v, reference %v", got, want)
	}
	return swapped, s.Validate()
}

// randomOp draws an operation. Half the pairs are among two hot ports, so
// their rows and columns fill and insertions take the swap path once
// removals have left holes; most removals name a pair that holds a cell.
func randomOp(rng *rand.Rand, r *refSchedule) refOp {
	ports := r.n
	if rng.Intn(2) == 0 {
		ports = 2
	}
	op := refOp{kind: rng.Intn(3), p: rng.Intn(ports), q: rng.Intn(ports), k: 1 + rng.Intn(1+r.slots/4)}
	if op.kind == 2 && rng.Intn(8) != 0 {
		t := rng.Intn(r.slots)
		for i, j := range r.outOf[t] {
			if j >= 0 {
				op.p, op.q = i, j
				if rng.Intn(2) == 0 {
					break
				}
			}
		}
	}
	return op
}

// TestScheduleMatchesReference drives Schedule and the reference with the
// same seeded insert/insertK/remove sequences and requires, after every
// operation, the same chosen slot, Steps and Moves and the same frame seen
// through every read accessor. The frame sizes cover a partial last word (6,
// 100), exactly whole words (128, 1024) and one word (16); the switch sizes
// one input word (4, 16, 24) and two (70). The first half of each run only
// inserts, and every run must reach the swap path.
func TestScheduleMatchesReference(t *testing.T) {
	for _, n := range []int{4, 16, 24, 70} {
		for _, slots := range []int{6, 16, 100, 128, 1024} {
			t.Run(fmt.Sprintf("n%d_slots%d", n, slots), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n*10007 + slots)))
				s, err := New(n, slots)
				if err != nil {
					t.Fatal(err)
				}
				r := newRef(n, slots)
				ops := 600
				if n*slots > 16*1024 {
					ops = 300
				}
				swaps := 0
				for k := 0; k < ops; k++ {
					op := randomOp(rng, r)
					if k < ops/2 && op.kind == 2 {
						op.kind = 1
					}
					swapped, err := checkAgainstRef(s, r, op)
					if err != nil {
						t.Fatalf("op %d %+v: %v", k, op, err)
					}
					if swapped {
						swaps++
					}
				}
				if swaps == 0 {
					t.Errorf("no insertion took the swap path in %d operations", ops)
				}
			})
		}
	}
}

// FuzzScheduleMatchesReference runs the differential check on an arbitrary
// operation sequence: the first two bytes pick the switch and frame size,
// then every three bytes are one operation (kind, p, q; k is 1 plus the top
// three bits of p's byte), up to 64 operations.
func FuzzScheduleMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1, 1, 2, 0, 0})
	f.Add([]byte{3, 2, 1, 5, 9, 0, 3, 3, 2, 5, 9, 1, 200, 7})
	f.Add([]byte{1, 4, 1, 0x31, 0x02, 1, 0x73, 0x05, 0, 1, 2, 2, 0x31, 0x02})
	sizes := []int{2, 4, 16, 24, 70}
	frames := []int{1, 3, 6, 16, 64, 100, 128}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, slots := sizes[int(data[0])%len(sizes)], frames[int(data[1])%len(frames)]
		s, err := New(n, slots)
		if err != nil {
			t.Fatal(err)
		}
		r := newRef(n, slots)
		for k, b := 0, data[2:]; len(b) >= 3 && k < 64; k, b = k+1, b[3:] {
			op := refOp{kind: int(b[0]) % 3, p: int(b[1]) % n, q: int(b[2]) % n, k: 1 + int(b[1]>>5)}
			if _, err := checkAgainstRef(s, r, op); err != nil {
				t.Fatalf("op %d %+v: %v", k, op, err)
			}
		}
	})
}
