package matching

import (
	"math/rand"
	"testing"
)

// boolModel is the seed's boolean-matrix Requests representation, kept as
// the reference model for the bitset implementation.
type boolModel struct {
	n   int
	req [][]bool
}

func newBoolModel(n int) *boolModel {
	m := &boolModel{n: n, req: make([][]bool, n)}
	for i := range m.req {
		m.req[i] = make([]bool, n)
	}
	return m
}

func (m *boolModel) set(i, j int) {
	if i >= 0 && i < m.n && j >= 0 && j < m.n {
		m.req[i][j] = true
	}
}

func (m *boolModel) clear(i, j int) {
	if i >= 0 && i < m.n && j >= 0 && j < m.n {
		m.req[i][j] = false
	}
}

func (m *boolModel) has(i, j int) bool {
	return i >= 0 && i < m.n && j >= 0 && j < m.n && m.req[i][j]
}

func (m *boolModel) outputs(i int) []int {
	var out []int
	for j, ok := range m.req[i] {
		if ok {
			out = append(out, j)
		}
	}
	return out
}

func (m *boolModel) count() int {
	c := 0
	for i := range m.req {
		for _, ok := range m.req[i] {
			if ok {
				c++
			}
		}
	}
	return c
}

func sameOutputs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

// checkEquiv compares the bitset against the reference model exhaustively.
func checkEquiv(t *testing.T, r *Requests, m *boolModel) {
	t.Helper()
	if r.Count() != m.count() {
		t.Fatalf("Count = %d, model %d", r.Count(), m.count())
	}
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if r.Has(i, j) != m.has(i, j) {
				t.Fatalf("Has(%d,%d) = %v, model %v", i, j, r.Has(i, j), m.has(i, j))
			}
		}
		if got, want := r.Outputs(i), m.outputs(i); !sameOutputs(got, want) {
			t.Fatalf("Outputs(%d) = %v, model %v", i, got, want)
		}
		// Every non-empty row is tracked — what ClearAll and the matcher
		// rely on to skip the rest.
		if tracked := r.Rows()[i/64]&(1<<(uint(i)%64)) != 0; !tracked && len(m.outputs(i)) > 0 {
			t.Fatalf("row %d holds requests %v but is not in Rows()", i, m.outputs(i))
		}
	}
	if extra := len(r.Rows())*64 - m.n; extra > 0 && r.Rows()[len(r.Rows())-1]&^(^uint64(0)>>uint(extra)) != 0 {
		t.Fatalf("Rows() names an input beyond %d: %#x", m.n, r.Rows())
	}
}

// TestBitsetMatchesBooleanModel drives random Set/Clear/SetRowAndNot/Clone/
// ClearAll sequences through the bitset Requests and the seed's
// boolean-matrix model, verifying Has/Outputs/Count equivalence and that the
// tracked row set covers every non-empty row — after every ClearAll and
// every few operations otherwise. Sizes straddle the 64-bit word boundary on
// purpose.
func TestBitsetMatchesBooleanModel(t *testing.T) {
	for _, n := range []int{1, 3, 16, 63, 64, 65, 100, 130} {
		rng := rand.New(rand.NewSource(int64(1000 + n)))
		r := NewRequests(n)
		m := newBoolModel(n)
		for op := 0; op < 600; op++ {
			i := rng.Intn(n+4) - 2 // deliberately out of range sometimes
			j := rng.Intn(n+4) - 2
			k := rng.Intn(10)
			switch k {
			case 0:
				r.ClearAll()
				m = newBoolModel(n)
			case 4:
				// A whole row at once, sometimes to empty.
				row := rng.Intn(n)
				elig := []uint64{rng.Uint64() & rng.Uint64(), rng.Uint64(), rng.Uint64()}[:rng.Intn(WordsFor(n)+1)]
				busy := []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}[:rng.Intn(WordsFor(n)+1)]
				if rng.Intn(3) == 0 {
					busy = elig
				}
				r.SetRowAndNot(row, elig, busy)
				for out := 0; out < n; out++ {
					m.clear(row, out)
					if e, b := out/64 < len(elig) && elig[out/64]>>(uint(out)%64)&1 != 0, out/64 < len(busy) && busy[out/64]>>(uint(out)%64)&1 != 0; e && !b {
						m.set(row, out)
					}
				}
			case 1, 2, 3:
				r.Clear(i, j)
				m.clear(i, j)
			default:
				r.Set(i, j)
				m.set(i, j)
			}
			if k == 0 || op%13 == 0 {
				checkEquiv(t, r, m)
				c := r.Clone()
				checkEquiv(t, c, m)
			}
		}
		checkEquiv(t, r, m)
	}
}

// TestSetRowAndNot verifies the word-wise row fill against the per-bit
// semantics (set every eligible bit whose output is not busy), across word
// boundaries and with elig/busy slices shorter than the row.
func TestSetRowAndNot(t *testing.T) {
	for _, n := range []int{1, 7, 64, 65, 128, 130} {
		rng := rand.New(rand.NewSource(int64(2000 + n)))
		words := WordsFor(n)
		r := NewRequests(n)
		for trial := 0; trial < 200; trial++ {
			elig := make([]uint64, rng.Intn(words+1))
			busy := make([]uint64, rng.Intn(words+1))
			for w := range elig {
				elig[w] = rng.Uint64()
			}
			for w := range busy {
				busy[w] = rng.Uint64()
			}
			i := rng.Intn(n)
			// Pre-dirty the row so stale bits must be overwritten.
			for k := 0; k < 3; k++ {
				r.Set(i, rng.Intn(n))
			}
			got := r.SetRowAndNot(i, elig, busy)
			wantAny := false
			for j := 0; j < n; j++ {
				e := j/64 < len(elig) && elig[j/64]&(1<<(uint(j)%64)) != 0
				b := j/64 < len(busy) && busy[j/64]&(1<<(uint(j)%64)) != 0
				want := e && !b
				if r.Has(i, j) != want {
					t.Fatalf("n=%d trial=%d: Has(%d,%d) = %v, want %v", n, trial, i, j, r.Has(i, j), want)
				}
				wantAny = wantAny || want
			}
			if got != wantAny {
				t.Fatalf("n=%d trial=%d: SetRowAndNot reported %v, want %v", n, trial, got, wantAny)
			}
			// No stray bits beyond n may survive in the last word.
			row := r.Row(i)
			if extra := words*64 - n; extra > 0 {
				if row[words-1]&^(^uint64(0)>>uint(extra)) != 0 {
					t.Fatalf("n=%d: stray bits above n in last word: %#x", n, row[words-1])
				}
			}
		}
	}
}

// TestAppendOutputsReuse confirms AppendOutputs extends dst in place with
// no allocation when capacity suffices.
func TestAppendOutputsReuse(t *testing.T) {
	r := NewRequests(70)
	r.Set(5, 2)
	r.Set(5, 63)
	r.Set(5, 64)
	r.Set(5, 69)
	dst := make([]int, 0, 70)
	dst = r.AppendOutputs(dst, 5)
	want := []int{2, 63, 64, 69}
	if !sameOutputs(dst, want) {
		t.Fatalf("AppendOutputs = %v, want %v", dst, want)
	}
	if got := r.AppendOutputs(dst[:0], 5); !sameOutputs(got, want) {
		t.Fatalf("reused AppendOutputs = %v, want %v", got, want)
	}
	if got := r.AppendOutputs(nil, -1); got != nil {
		t.Fatalf("out-of-range input returned %v", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		dst = r.AppendOutputs(dst[:0], 5)
	})
	if allocs != 0 {
		t.Fatalf("AppendOutputs allocated %.1f times per run", allocs)
	}
}

func TestWordsFor(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 63: 1, 64: 1, 65: 2, 128: 2, 129: 3}
	for n, want := range cases {
		if got := WordsFor(n); got != want {
			t.Fatalf("WordsFor(%d) = %d, want %d", n, got, want)
		}
	}
}
