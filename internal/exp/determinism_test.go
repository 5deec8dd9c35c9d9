package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// renderAll runs the given experiments at seed 42 and concatenates their
// rendered tables.
func renderAll(t *testing.T, ids []string) string {
	t.Helper()
	var sb strings.Builder
	for _, id := range ids {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		tables, err := e.Run(42)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, tab := range tables {
			sb.WriteString(tab.String())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// checkGolden fails unless the seed-42 tables of the experiments hash to
// golden.
func checkGolden(t *testing.T, golden string, ids ...string) {
	t.Helper()
	out := renderAll(t, ids)
	sum := sha256.Sum256([]byte(out))
	if h := hex.EncodeToString(sum[:16]); h != golden {
		t.Fatalf("%v tables hash %s, golden %s:\n%s", ids, h, golden, out)
	}
}

// TestPublishedTablesGolden pins the experiments the paper's throughput
// and fairness claims rest on — E2–E5 plus the scheduler comparisons
// E25/E26 — to the tables the flat engine printed: the hash was captured at
// parent commit 1681f3a (PR 12) with GOMAXPROCS=1, i.e. flat sequential
// stepping, where the old form of this test had pinned sequential and
// worker-pool stepping byte-identical. No change to the stepping engine
// may move a published number.
func TestPublishedTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-experiment golden in -short mode")
	}
	checkGolden(t, "105368011634ac43763ca476a2c1a631", "E2", "E3", "E4", "E5", "E25", "E26")
}

// TestFabricTablesGolden pins E30 — hierarchical recovery on the fat-tree:
// pod-scoped vs global rounds, message counts, convergence times — at seed
// 42. The tables were byte-identical in every committed an2bench snapshot
// from the PR that introduced them (flat stepping) to the last one (the
// wake set); the hash is of today's output, checked equal to that record.
func TestFabricTablesGolden(t *testing.T) {
	checkGolden(t, "3e548df6ba441a002a377fd1af6e34ae", "E30")
}
