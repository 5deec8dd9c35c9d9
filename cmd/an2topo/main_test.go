package main

import (
	"math/rand"
	"testing"
)

func TestFamilies(t *testing.T) {
	for _, fam := range []string{"src", "torus", "ring", "line", "tree", "random"} {
		if err := run([]string{"-family", fam, "-switches", "9", "-hosts", "4"}); err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
	}
}

func TestDOTAndJSON(t *testing.T) {
	if err := run([]string{"-family", "ring", "-switches", "4", "-dot"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-family", "ring", "-switches", "4", "-json"}); err != nil {
		t.Fatal(err)
	}
}

func TestFatTreeKind(t *testing.T) {
	if err := run([]string{"-kind", "fattree", "-radix", "8", "-pods", "4", "-hosts", "1"}); err != nil {
		t.Fatal(err)
	}
	// Switch-only fabric, pod-colored DOT.
	if err := run([]string{"-kind", "fattree", "-radix", "6", "-pods", "3", "-hosts", "0", "-dot"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-kind", "fattree", "-radix", "8", "-oversub", "3", "-hosts", "6", "-json"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-kind", "fattree", "-radix", "3"}); err == nil {
		t.Fatal("infeasible radix accepted")
	}
}

func TestRoot(t *testing.T) {
	if err := run([]string{"-family", "ring", "-switches", "6", "-root", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-family", "ring", "-switches", "6", "-hosts", "6", "-root", "7"}); err == nil {
		t.Fatal("a host accepted as the orientation root")
	}
}

func TestUnknownFamily(t *testing.T) {
	if err := run([]string{"-family", "hypercube9000"}); err == nil {
		t.Fatal("unknown family accepted")
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := build(rng, "nope", 4, 4); err == nil {
		t.Fatal("build accepted unknown family")
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-zap"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}
