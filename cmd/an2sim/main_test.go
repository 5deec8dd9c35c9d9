package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/topology"
)

func TestShortSimulation(t *testing.T) {
	err := run([]string{
		"-topology", "src", "-switches", "9", "-hosts", "8",
		"-circuits", "4", "-guaranteed", "1", "-rate", "4", "-slots", "2000", "-frame", "64",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPullPlugSimulation(t *testing.T) {
	err := run([]string{
		"-topology", "src", "-switches", "9", "-hosts", "8",
		"-circuits", "3", "-guaranteed", "0", "-slots", "3000", "-frame", "64",
		"-pullplug",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTorusAndRandomFamilies(t *testing.T) {
	for _, fam := range []string{"torus", "random", "ring"} {
		err := run([]string{
			"-topology", fam, "-switches", "9", "-hosts", "9",
			"-circuits", "2", "-guaranteed", "0", "-slots", "1000", "-frame", "32",
		})
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
	}
}

func TestTopologyFromFile(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, err := topology.SRCLike(rng, 3, 3, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lan.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{
		"-topology", "file", "-file", path,
		"-circuits", "2", "-guaranteed", "0", "-slots", "800", "-frame", "32",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestErrors(t *testing.T) {
	if err := run([]string{"-topology", "marsnet"}); err == nil {
		t.Fatal("unknown family accepted")
	}
	if err := run([]string{"-topology", "file", "-file", "/does/not/exist.json"}); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := run([]string{"-zap"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestTraceFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	err := run([]string{
		"-topology", "src", "-switches", "9", "-hosts", "6",
		"-circuits", "2", "-guaranteed", "0", "-slots", "500", "-frame", "32",
		"-trace", path,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty trace file")
	}
}
