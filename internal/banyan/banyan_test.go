package banyan

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, n int) *Banyan {
	t.Helper()
	b, err := New(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestValidation(t *testing.T) {
	for _, n := range []int{0, 1, 3, 6, 15} {
		if _, err := New(n, 1); err == nil {
			t.Errorf("size %d accepted", n)
		}
	}
	b := mustNew(t, 16)
	if b.N() != 16 {
		t.Fatalf("N=%d", b.N())
	}
	// Cost scaling: (16/2)*4*4 = 128 crosspoints vs crossbar's 256.
	if b.Crosspoints() != 128 {
		t.Fatalf("crosspoints = %d", b.Crosspoints())
	}
}

func TestSingleCellAlwaysPasses(t *testing.T) {
	b := mustNew(t, 8)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			dest := []int{-1, -1, -1, -1, -1, -1, -1, -1}
			dest[i] = j
			granted := b.Route(dest)
			if !granted[i] {
				t.Fatalf("lone cell %d->%d blocked", i, j)
			}
		}
	}
	st := b.Stats()
	if st.Passed != 64 || st.InternalBlocked != 0 || st.OutputBlocked != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// The identity and the bit-reversal permutations route without conflict in
// a butterfly; many other permutations block internally — the defining
// difference from a crossbar, which passes every permutation.
func TestPermutationBlocking(t *testing.T) {
	b := mustNew(t, 8)
	identity := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for i, g := range b.Route(identity) {
		if !g {
			t.Fatalf("identity blocked at %d", i)
		}
	}
	// Count how many random permutations pass completely: for a butterfly
	// it is a small fraction (2^(n/2 * log n... far fewer than n!); for a
	// crossbar it would be all of them.
	rng := rand.New(rand.NewSource(7))
	fullPass := 0
	const trials = 200
	for k := 0; k < trials; k++ {
		perm := rng.Perm(8)
		all := true
		for _, g := range b.Route(perm) {
			if !g {
				all = false
				break
			}
		}
		if all {
			fullPass++
		}
	}
	if fullPass == trials {
		t.Fatal("every permutation passed; internal blocking is not modeled")
	}
	if fullPass == 0 {
		t.Fatal("no permutation passed; wiring is wrong (identity passes, so some must)")
	}
}

func TestOutputConflictExactlyOneWins(t *testing.T) {
	b := mustNew(t, 8)
	// All inputs to output 3.
	dest := []int{3, 3, 3, 3, 3, 3, 3, 3}
	granted := b.Route(dest)
	winners := 0
	for _, g := range granted {
		if g {
			winners++
		}
	}
	if winners != 1 {
		t.Fatalf("%d winners for one output", winners)
	}
}

// pathWires is the wire each stage of the (input, output) path uses:
// stage s replaces the input's bit stages-1-s with the output's.
func pathWires(stages, input, output int) []int {
	wires := make([]int, stages)
	v := input
	for s := range wires {
		bit := stages - 1 - s
		v = v&^(1<<bit) | output&(1<<bit)
		wires[s] = v
	}
	return wires
}

// TestUniquePathProperty: every (input, output) pair has one path, paths
// to one output share its final wire, and two cells block each other
// exactly when their paths share a wire in some stage.
func TestUniquePathProperty(t *testing.T) {
	const n, stages = 16, 4
	b := mustNew(t, n)
	dest := make([]int, n)
	f := func(rawI, rawJ, rawK, rawL uint8) bool {
		i, j, k, l := int(rawI%n), int(rawJ%n), int(rawK%n), int(rawL%n)
		wi, wk := pathWires(stages, i, j), pathWires(stages, k, l)
		if j == l && wi[stages-1] != wk[stages-1] {
			return false // one output, one final wire
		}
		if i == k {
			return true // an input offers one cell a slot
		}
		shared := false
		for s := range wi {
			shared = shared || wi[s] == wk[s]
		}
		for p := range dest {
			dest[p] = -1
		}
		dest[i], dest[k] = j, l
		g := b.Route(dest)
		if shared {
			return g[i] != g[k] // exactly one wins the shared wire
		}
		return g[i] && g[k]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestConservation(t *testing.T) {
	b := mustNew(t, 16)
	rng := rand.New(rand.NewSource(3))
	for s := 0; s < 500; s++ {
		dest := make([]int, 16)
		for i := range dest {
			dest[i] = -1
			if rng.Float64() < 0.7 {
				dest[i] = rng.Intn(16)
			}
		}
		b.Route(dest)
	}
	st := b.Stats()
	if st.Passed+st.InternalBlocked+st.OutputBlocked != st.Offered {
		t.Fatalf("cells unaccounted: %+v", st)
	}
	if st.InternalBlocked == 0 {
		t.Fatal("uniform traffic should block internally sometimes")
	}
}

func TestRouteWrongSize(t *testing.T) {
	b := mustNew(t, 8)
	granted := b.Route([]int{1, 2})
	for _, g := range granted {
		if g {
			t.Fatal("wrong-size request granted")
		}
	}
}

func BenchmarkRoute16(b *testing.B) {
	fab, err := New(16, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	dest := make([]int, 16)
	for i := range dest {
		dest[i] = rng.Intn(16)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fab.Route(dest)
	}
}
