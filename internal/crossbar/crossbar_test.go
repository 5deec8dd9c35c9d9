package crossbar

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/matching"
)

func TestConfigureAndTransfer(t *testing.T) {
	xb := New(4)
	if xb.N() != 4 {
		t.Fatal("size")
	}
	m := matching.NewMatching(4)
	m[0] = 2
	m[3] = 1
	if err := xb.Configure(m); err != nil {
		t.Fatal(err)
	}
	if xb.Connected(0) != 2 || xb.Connected(3) != 1 || xb.Connected(1) != -1 {
		t.Fatal("Connected wrong")
	}
	if !xb.OutputBusy(2) || !xb.OutputBusy(1) || xb.OutputBusy(0) {
		t.Fatal("OutputBusy wrong")
	}
	if xb.InputFree(0) || !xb.InputFree(1) {
		t.Fatal("InputFree wrong")
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

func TestConfigureRejectsBadMatchings(t *testing.T) {
	xb := New(4)
	if err := xb.Configure(matching.NewMatching(3)); !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("size mismatch err = %v", err)
	}
	dup := matching.NewMatching(4)
	dup[0] = 1
	dup[2] = 1
	if err := xb.Configure(dup); !errors.Is(err, ErrOutputBusy) {
		t.Fatalf("dup output err = %v", err)
	}
	oob := matching.NewMatching(4)
	oob[0] = 9
	if err := xb.Configure(oob); !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("oob output err = %v", err)
	}
}

// TestRejectedMatchingLeavesConsistentState: whatever a rejected matching
// connected before the offending pair is recorded as connected — inputs,
// outputs and the two bitsets agree — and Reset clears all of it.
func TestRejectedMatchingLeavesConsistentState(t *testing.T) {
	const n = 70
	xb := New(n)
	bad := matching.NewMatching(n)
	bad[3], bad[65], bad[68] = 66, 2, 66 // input 68 repeats output 66
	if err := xb.Configure(bad); !errors.Is(err, ErrOutputBusy) {
		t.Fatalf("err = %v", err)
	}
	check := func(when string, conns map[int]int) {
		t.Helper()
		for i := 0; i < n; i++ {
			want, connected := conns[i]
			if !connected {
				want = -1
			}
			inSet := xb.ConnectedInputWords()[i/64]>>(uint(i)%64)&1 != 0
			if xb.Connected(i) != want || inSet != connected || xb.InputFree(i) == connected {
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
	check("after the rejected matching", map[int]int{3: 66, 65: 2})
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
	if err := xb.ConnectOne(-1, 0); err == nil {
		t.Fatal("negative input accepted")
	}
	if err := xb.ConnectOne(0, 4); err == nil {
		t.Fatal("out-of-range output accepted")
	}
	// Guaranteed + best-effort coexistence: configure from a matching on
	// top of existing connections is not supported (Configure resets), so
	// the switch adds guaranteed first, then fills with ConnectOne. Reset
	// clears everything.
	xb.Reset()
	if xb.Connected(1) != -1 || xb.OutputBusy(3) {
		t.Fatal("Reset incomplete")
	}
}

func TestSlotParallelism(t *testing.T) {
	// A full permutation moves N cells in one slot.
	const n = 16
	xb := New(n)
	perm := rand.New(rand.NewSource(1)).Perm(n)
	m := matching.NewMatching(n)
	for i, j := range perm {
		m[i] = j
	}
	if err := xb.Configure(m); err != nil {
		t.Fatal(err)
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
	if xb.InputFree(-1) || xb.InputFree(5) {
		t.Fatal("out-of-range InputFree should be false")
	}
}
