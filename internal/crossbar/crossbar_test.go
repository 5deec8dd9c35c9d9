package crossbar

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cell"
)

func TestConnectAndTransfer(t *testing.T) {
	xb := New(4)
	if xb.N() != 4 {
		t.Fatal("size")
	}
	for _, c := range [][2]int{{0, 2}, {3, 1}} {
		if err := xb.ConnectOne(c[0], c[1]); err != nil {
			t.Fatal(err)
		}
	}
	if xb.Connected(0) != 2 || xb.Connected(3) != 1 || xb.Connected(1) != -1 {
		t.Fatal("Connected wrong")
	}
	if !xb.OutputBusy(2) || !xb.OutputBusy(1) || xb.OutputBusy(0) {
		t.Fatal("OutputBusy wrong")
	}
	out, err := xb.Transfer(0, &cell.Cell{VC: 1})
	if err != nil || out != 2 {
		t.Fatalf("Transfer = %d, %v", out, err)
	}
	if _, err := xb.Transfer(1, &cell.Cell{}); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("unconnected transfer err = %v", err)
	}
	if xb.Transferred() != 1 {
		t.Fatalf("Transferred = %d", xb.Transferred())
	}
}

// TestRejectedConnectLeavesConsistentState: the connections made before a
// rejected one stay recorded as connected — inputs, outputs and the two
// bitsets agree — and Reset clears all of it.
func TestRejectedConnectLeavesConsistentState(t *testing.T) {
	const n = 70
	xb := New(n)
	for _, c := range [][2]int{{3, 66}, {65, 2}} {
		if err := xb.ConnectOne(c[0], c[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := xb.ConnectOne(68, 66); !errors.Is(err, ErrOutputBusy) { // output 66 again
		t.Fatalf("err = %v", err)
	}
	if err := xb.ConnectOne(65, 67); err == nil { // input 65 again
		t.Fatal("input reuse accepted")
	}
	check := func(when string, conns map[int]int) {
		t.Helper()
		for i := 0; i < n; i++ {
			want, connected := conns[i]
			if !connected {
				want = -1
			}
			inSet := xb.ConnectedInputWords()[i/64]>>(uint(i)%64)&1 != 0
			if xb.Connected(i) != want || inSet != connected {
				t.Fatalf("%s: input %d connected to %d (in set: %v), want %d", when, i, xb.Connected(i), inSet, want)
			}
		}
		busy := map[int]bool{}
		for _, j := range conns {
			busy[j] = true
		}
		for j := 0; j < n; j++ {
			if inSet := xb.OutputBusyWords()[j/64]>>(uint(j)%64)&1 != 0; xb.OutputBusy(j) != busy[j] || inSet != busy[j] {
				t.Fatalf("%s: output %d busy=%v (in set: %v), want %v", when, j, xb.OutputBusy(j), inSet, busy[j])
			}
		}
	}
	check("after the rejected connections", map[int]int{3: 66, 65: 2})
	xb.Reset()
	check("after Reset", nil)
	if err := xb.ConnectOne(68, 66); err != nil {
		t.Fatalf("fabric not reusable after Reset: %v", err)
	}
	check("after reuse", map[int]int{68: 66})
}

func TestConnectOne(t *testing.T) {
	xb := New(4)
	if err := xb.ConnectOne(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := xb.ConnectOne(1, 2); err == nil {
		t.Fatal("input reuse accepted")
	}
	if err := xb.ConnectOne(2, 3); !errors.Is(err, ErrOutputBusy) {
		t.Fatalf("output reuse err = %v", err)
	}
	if err := xb.ConnectOne(-1, 0); !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("negative input err = %v", err)
	}
	if err := xb.ConnectOne(0, 4); !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("out-of-range output err = %v", err)
	}
	xb.Reset()
	if xb.Connected(1) != -1 || xb.OutputBusy(3) {
		t.Fatal("Reset incomplete")
	}
}

// TestConfigureRejectsBadMatchings: a scheduler's matching applied pair by
// pair through ConnectOne is refused where it is not a matching of this
// fabric — an input beyond the port count, an output used twice, an output
// out of range.
func TestConfigureRejectsBadMatchings(t *testing.T) {
	apply := func(xb *Crossbar, m []int) error {
		for i, j := range m {
			if j < 0 {
				continue
			}
			if err := xb.ConnectOne(i, j); err != nil {
				return err
			}
		}
		return nil
	}
	xb := New(4)
	if err := apply(xb, []int{-1, -1, -1, -1, 0}); !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("size mismatch err = %v", err)
	}
	xb.Reset()
	if err := apply(xb, []int{1, -1, 1, -1}); !errors.Is(err, ErrOutputBusy) {
		t.Fatalf("dup output err = %v", err)
	}
	xb.Reset()
	if err := apply(xb, []int{9, -1, -1, -1}); !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("oob output err = %v", err)
	}
}

func TestSlotParallelism(t *testing.T) {
	// A full permutation moves N cells in one slot.
	const n = 16
	xb := New(n)
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for i, j := range perm {
		if err := xb.ConnectOne(i, j); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		out, err := xb.Transfer(i, &cell.Cell{})
		if err != nil || out != perm[i] {
			t.Fatalf("input %d: out=%d err=%v want %d", i, out, err, perm[i])
		}
	}
	if xb.Transferred() != n {
		t.Fatalf("Transferred = %d, want %d", xb.Transferred(), n)
	}
}

func TestBoundaryQueries(t *testing.T) {
	xb := New(2)
	if xb.Connected(-1) != -1 || xb.Connected(5) != -1 {
		t.Fatal("out-of-range Connected should be -1")
	}
	if xb.OutputBusy(-1) || xb.OutputBusy(5) {
		t.Fatal("out-of-range OutputBusy should be false")
	}
}
