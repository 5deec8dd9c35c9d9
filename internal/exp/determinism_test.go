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
	const golden = "105368011634ac43763ca476a2c1a631"
	out := renderAll(t, []string{"E2", "E3", "E4", "E5", "E25", "E26"})
	sum := sha256.Sum256([]byte(out))
	if h := hex.EncodeToString(sum[:16]); h != golden {
		t.Fatalf("published tables hash %s, golden %s:\n%s", h, golden, out)
	}
}
