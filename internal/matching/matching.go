// Package matching provides bipartite matching machinery for crossbar
// scheduling experiments: a request-graph representation, matching
// legality/maximality verification, greedy maximal matching, and
// Hopcroft–Karp maximum matching.
//
// The paper (§3) contrasts AN2's randomized parallel iterative matching
// (package pim) with maximum matching, which "can lead to starvation" and
// for which no fast enough algorithm was known. Hopcroft–Karp here is the
// baseline that exhibits exactly that starvation in experiment E5.
//
// Requests is backed by a bitset ([]uint64 words, row-major), so the
// slot-level hot path — clearing the matrix, populating a row from a
// line card's eligible-output bitset, and iterating a row's requests —
// runs word-wise with no per-slot allocation. It also remembers which rows
// may hold a request (Rows), so clearing the matrix and matching over it cost
// the inputs that asked for something, not the port count. The exported
// semantics are identical to the original boolean-matrix representation
// (verified by a property test against a boolean-matrix reference model).
package matching

import (
	"fmt"
	"math/bits"
)

// wordBits is the bitset word width.
const wordBits = 64

// WordsFor returns the number of uint64 words needed for n bits — the row
// length of Requests.Row and the mask length expected by SetRowAndNot.
func WordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// Requests is a bipartite request graph between n inputs and n outputs.
// Row i holds the set of outputs input i has buffered cells for, as a
// bitset.
type Requests struct {
	n     int
	words int      // words per row
	bits  []uint64 // n*words, row-major
	// rows is a superset of the non-empty rows (bit i set if row i may hold
	// a request): Set and SetRowAndNot add to it, ClearAll empties it, and
	// a row outside it is all zero.
	rows []uint64
}

// NewRequests creates an empty request graph for an n×n switch.
func NewRequests(n int) *Requests {
	w := WordsFor(n)
	return &Requests{n: n, words: w, bits: make([]uint64, n*w), rows: make([]uint64, w)}
}

// N returns the switch size.
func (r *Requests) N() int { return r.n }

// Set marks that input i has at least one cell destined to output j.
func (r *Requests) Set(i, j int) {
	if i >= 0 && i < r.n && j >= 0 && j < r.n {
		r.bits[i*r.words+j/wordBits] |= 1 << (uint(j) % wordBits)
		r.rows[i/wordBits] |= 1 << (uint(i) % wordBits)
	}
}

// Clear removes the request from input i to output j.
func (r *Requests) Clear(i, j int) {
	if i >= 0 && i < r.n && j >= 0 && j < r.n {
		r.bits[i*r.words+j/wordBits] &^= 1 << (uint(j) % wordBits)
	}
}

// ClearAll removes every request — the per-slot reset. Only the rows that
// may hold one are touched.
func (r *Requests) ClearAll() {
	for w, word := range r.rows {
		for ; word != 0; word &= word - 1 {
			i := w*wordBits + bits.TrailingZeros64(word)
			for k := i * r.words; k < (i+1)*r.words; k++ {
				r.bits[k] = 0
			}
		}
		r.rows[w] = 0
	}
}

// Rows returns the inputs whose rows may be non-empty, as a bitset: every
// input with a request is in it, and a row outside it is empty. The slice
// aliases the matrix: read-only, valid until the next mutation.
func (r *Requests) Rows() []uint64 { return r.rows }

// Has reports whether input i requests output j.
func (r *Requests) Has(i, j int) bool {
	return i >= 0 && i < r.n && j >= 0 && j < r.n &&
		r.bits[i*r.words+j/wordBits]&(1<<(uint(j)%wordBits)) != 0
}

// Row returns input i's request bitset (WordsFor(N()) words, bit j set iff
// i requests j). The slice aliases the matrix: callers must treat it as
// read-only, and it is valid until the matrix is resized (never).
func (r *Requests) Row(i int) []uint64 {
	return r.bits[i*r.words : (i+1)*r.words]
}

// SetRowAndNot replaces input i's row with elig &^ busy: the outputs in
// the eligibility bitset that are not masked busy. elig and busy may be
// shorter than the row (missing words are zero); elig bits at or beyond N
// are ignored. It reports whether the resulting row is non-empty. This is
// the switch's phase-2 hot path: one word-wise operation per line card
// instead of a per-output loop.
func (r *Requests) SetRowAndNot(i int, elig, busy []uint64) bool {
	if r.words == 1 {
		// Up to 64 ports — every switch this repository builds: one word,
		// no loops.
		var v uint64
		if len(elig) > 0 {
			v = elig[0]
		}
		if len(busy) > 0 {
			v &^= busy[0]
		}
		v &= ^uint64(0) >> uint(wordBits-r.n)
		r.bits[i] = v
		if v != 0 {
			r.rows[0] |= 1 << uint(i)
		}
		return v != 0
	}
	row := r.bits[i*r.words : (i+1)*r.words]
	for w := range row {
		var v uint64
		if w < len(elig) {
			v = elig[w]
		}
		if w < len(busy) {
			v &^= busy[w]
		}
		row[w] = v
	}
	// Mask stray bits above n in the last word so Count/Outputs stay exact.
	if extra := r.words*wordBits - r.n; extra > 0 {
		row[r.words-1] &= ^uint64(0) >> uint(extra)
	}
	var any uint64
	for _, v := range row {
		any |= v
	}
	if any != 0 {
		r.rows[i/wordBits] |= 1 << (uint(i) % wordBits)
	}
	return any != 0
}

// Outputs returns the outputs requested by input i, ascending.
func (r *Requests) Outputs(i int) []int {
	return r.AppendOutputs(nil, i)
}

// AppendOutputs appends the outputs requested by input i to dst, ascending,
// and returns the extended slice — the allocation-free form of Outputs.
func (r *Requests) AppendOutputs(dst []int, i int) []int {
	if i < 0 || i >= r.n {
		return dst
	}
	row := r.Row(i)
	for w, word := range row {
		base := w * wordBits
		for word != 0 {
			dst = append(dst, base+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return dst
}

// Count returns the total number of (input, output) request pairs.
func (r *Requests) Count() int {
	c := 0
	for _, w := range r.bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns a deep copy.
func (r *Requests) Clone() *Requests {
	c := NewRequests(r.n)
	copy(c.bits, r.bits)
	copy(c.rows, r.rows)
	return c
}

// Matching pairs inputs with outputs: m[i] is the output matched to input
// i, or -1. A Matching of size n is allocated with NewMatching.
type Matching []int

// NewMatching returns an empty matching for an n×n switch.
func NewMatching(n int) Matching {
	m := make(Matching, n)
	m.Reset()
	return m
}

// Reset unmatches every input, making m reusable across slots.
func (m Matching) Reset() {
	for i := range m {
		m[i] = -1
	}
}

// Size returns the number of matched pairs.
func (m Matching) Size() int {
	c := 0
	for _, j := range m {
		if j >= 0 {
			c++
		}
	}
	return c
}

// Legal reports whether m is a legal matching for r: each matched pair is a
// real request, and no output is used twice (input uniqueness is structural).
func (m Matching) Legal(r *Requests) error {
	if len(m) != r.n {
		return fmt.Errorf("matching: size %d for %d×%d switch", len(m), r.n, r.n)
	}
	usedOut := make([]bool, r.n)
	for i, j := range m {
		if j < 0 {
			continue
		}
		if j >= r.n {
			return fmt.Errorf("matching: input %d matched to out-of-range output %d", i, j)
		}
		if !r.Has(i, j) {
			return fmt.Errorf("matching: input %d matched to output %d without a request", i, j)
		}
		if usedOut[j] {
			return fmt.Errorf("matching: output %d matched twice", j)
		}
		usedOut[j] = true
	}
	return nil
}

// Maximal reports whether m is maximal for r: no unmatched input requests
// an unmatched output. Parallel iterative matching iterated to quiescence
// produces a maximal matching (paper §3).
func (m Matching) Maximal(r *Requests) bool {
	usedOut := make([]bool, r.n)
	for _, j := range m {
		if j >= 0 {
			usedOut[j] = true
		}
	}
	for i, j := range m {
		if j >= 0 {
			continue
		}
		row := r.Row(i)
		for w, word := range row {
			base := w * wordBits
			for word != 0 {
				o := base + bits.TrailingZeros64(word)
				word &= word - 1
				if !usedOut[o] {
					return false
				}
			}
		}
	}
	return true
}

// GreedyMaximal computes a maximal matching by scanning inputs in order and
// taking the first free requested output. It is the simplest deterministic
// baseline; its fixed scan order is what randomized PIM avoids.
func GreedyMaximal(r *Requests) Matching {
	m := NewMatching(r.n)
	usedOut := make([]bool, r.n)
	for i := 0; i < r.n; i++ {
		for j := 0; j < r.n; j++ {
			if r.Has(i, j) && !usedOut[j] {
				m[i] = j
				usedOut[j] = true
				break
			}
		}
	}
	return m
}

// HopcroftKarp computes a maximum matching of the request graph in
// O(E·sqrt(V)). It is deterministic: ties are resolved in ascending index
// order, which is precisely why it can starve flows (experiment E5).
func HopcroftKarp(r *Requests) Matching {
	n := r.n
	const inf = int(^uint(0) >> 1)
	matchIn := NewMatching(n) // input -> output
	matchOut := make([]int, n)
	for i := range matchOut {
		matchOut[i] = -1
	}
	dist := make([]int, n)
	queue := make([]int, 0, n)

	bfs := func() bool {
		queue = queue[:0]
		for i := 0; i < n; i++ {
			if matchIn[i] < 0 {
				dist[i] = 0
				queue = append(queue, i)
			} else {
				dist[i] = inf
			}
		}
		found := false
		for qi := 0; qi < len(queue); qi++ {
			i := queue[qi]
			row := r.Row(i)
			for w, word := range row {
				base := w * wordBits
				for word != 0 {
					j := base + bits.TrailingZeros64(word)
					word &= word - 1
					k := matchOut[j]
					if k < 0 {
						found = true
					} else if dist[k] == inf {
						dist[k] = dist[i] + 1
						queue = append(queue, k)
					}
				}
			}
		}
		return found
	}

	var dfs func(i int) bool
	dfs = func(i int) bool {
		row := r.Row(i)
		for w, word := range row {
			base := w * wordBits
			for word != 0 {
				j := base + bits.TrailingZeros64(word)
				word &= word - 1
				k := matchOut[j]
				if k < 0 || (dist[k] == dist[i]+1 && dfs(k)) {
					matchIn[i] = j
					matchOut[j] = i
					return true
				}
			}
		}
		dist[i] = inf
		return false
	}

	for bfs() {
		for i := 0; i < n; i++ {
			if matchIn[i] < 0 {
				dfs(i)
			}
		}
	}
	return matchIn
}
