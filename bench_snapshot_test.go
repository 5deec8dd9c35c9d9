package repro

import (
	"encoding/json"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// benchSnapshot mirrors cmd/an2bench's -json record shape.
type benchSnapshot struct {
	ID         string `json:"id"`
	WallMillis int64  `json:"wall_ms"`
	Tables     []struct {
		Title   string     `json:"title"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	} `json:"tables"`
}

func loadSnapshot(t *testing.T, path string) map[string]benchSnapshot {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []benchSnapshot
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	out := make(map[string]benchSnapshot, len(recs))
	for _, r := range recs {
		out[r.ID] = r
	}
	return out
}

// rows flattens a record's two-column tables into label -> value.
func (r benchSnapshot) rows() map[string]string {
	out := make(map[string]string)
	for _, tab := range r.Tables {
		for _, row := range tab.Rows {
			if len(row) >= 2 {
				out[row[0]] = row[1]
			}
		}
	}
	return out
}

// benchTrajectory lists the committed an2bench snapshots in PR order with
// the experiments each one introduced. The next snapshot is one more row.
var benchTrajectory = []struct {
	pr   int
	adds []string
}{
	{2, nil},
	{5, []string{"E27", "E28", "E29"}}, // recovery, chaos, observability
	{6, []string{"E30"}},               // the fabric subsystem
	{7, []string{"E31"}},               // wake-set stepping
	{8, []string{"E32"}},               // service mode
	{9, []string{"E33"}},               // survivable service
	{10, []string{"E34"}},              // cross-process tracing
}

// benchHeadlines are the per-experiment promises, each checked in the
// snapshots from pr through until (0 = every later one).
var benchHeadlines = []struct {
	pr, until int
	id        string
	check     func(t *testing.T, where string, rec benchSnapshot)
}{
	// E31: a ≥5× measured wake-set speedup, byte-identical to flat
	// stepping, on the 720-switch radix-24 fat-tree at <1% activity.
	{7, 7, "E31", func(t *testing.T, where string, rec benchSnapshot) {
		best, found := 0.0, false
		for _, row := range rec.Tables[0].Rows {
			// topology | switches | active | workers | flat | wake | speedup | identical
			if len(row) < 8 || !strings.Contains(row[0], "r24") {
				continue
			}
			found = true
			if row[7] != "yes" {
				t.Errorf("%s: E31 radix-24 row not byte-identical: %v", where, row)
			}
			sp, err := strconv.ParseFloat(row[6], 64)
			if err != nil {
				t.Errorf("%s: E31 radix-24 speedup column unparseable: %v", where, row)
			}
			best = max(best, sp)
		}
		if !found {
			t.Errorf("%s: E31 has no radix-24 fat-tree rows", where)
		} else if best < 5.0 {
			t.Errorf("%s: E31 radix-24 wake-set speedup %.2fx below the promised 5x", where, best)
		}
	}},
	// E32: the loopback run actually completed its ≥10⁵ flows.
	{8, 0, "E32", func(t *testing.T, where string, rec benchSnapshot) {
		row := rec.rows()["flows completed"]
		if n, err := strconv.ParseInt(row, 10, 64); err != nil || n < 100_000 {
			t.Errorf("%s: E32 flows completed = %q, below the promised 1e5", where, row)
		}
	}},
	// E33: every live tenant re-attached after the mid-churn
	// kill+restart, and no orphan VC survives lease expiry.
	{9, 0, "E33", func(t *testing.T, where string, rec benchSnapshot) {
		r := rec.rows()
		if live, re := r["live tenants"], r["tenants re-attached"]; live == "" || live != re {
			t.Errorf("%s: E33 tenants re-attached (%q) != live tenants (%q) — the fleet did not fully recover", where, re, live)
		}
		if orphans := r["orphan VCs after lease expiry"]; orphans != "0" {
			t.Errorf("%s: E33 orphan VCs after lease expiry = %q, want 0", where, orphans)
		}
	}},
	// E33: jittered backoff's peak retransmit rate strictly below fixed
	// pacing's.
	{9, 9, "E33", func(t *testing.T, where string, rec benchSnapshot) {
		r := rec.rows()
		fixed, err1 := strconv.ParseInt(r["peak retransmits per 20ms (fixed pacing)"], 10, 64)
		jitter, err2 := strconv.ParseInt(r["peak retransmits per 20ms (jittered backoff)"], 10, 64)
		if err1 != nil || err2 != nil {
			t.Errorf("%s: E33 herd peak rows unparseable: fixed=%q jittered=%q", where,
				r["peak retransmits per 20ms (fixed pacing)"], r["peak retransmits per 20ms (jittered backoff)"])
		} else if jitter >= fixed {
			t.Errorf("%s: E33 jittered backoff peak %d not below fixed-pacing peak %d", where, jitter, fixed)
		}
	}},
	// E33: the unavailability window reconstructed from merged spans alone
	// lands within ±10% of ground truth.
	{10, 0, "E33", func(t *testing.T, where string, rec benchSnapshot) {
		row := rec.rows()["trace window error (%)"]
		if e, err := strconv.ParseFloat(row, 64); err != nil || e < 0 || e > 10.0 {
			t.Errorf("%s: E33 trace window error = %q, want within 10%% of ground truth", where, row)
		}
	}},
	// E34: tracing disabled adds exactly 0 allocs to the request hot path.
	{10, 0, "E34", func(t *testing.T, where string, rec benchSnapshot) {
		r := rec.rows()
		if added := r["added allocs/op (tracing disabled)"]; added != "0.00" {
			t.Errorf("%s: E34 tracing disabled added %q allocs/op to the request hot path, want exactly 0.00", where, added)
		}
		if _, err := strconv.ParseFloat(r["throughput overhead (%)"], 64); err != nil {
			t.Errorf("%s: E34 throughput-overhead row unparseable: %q", where, r["throughput overhead (%)"])
		}
	}},
}

// TestBenchTrajectoryNoE2Regression walks the committed an2bench snapshots
// in PR order. In every one, E2's measured results are exactly BENCH_2's
// and its wall time within 5% of BENCH_2's (nothing added since — obs
// handles, the transport abstraction, leases, span plumbing — may touch
// the default data plane); no experiment of the previous snapshot has
// vanished and the ones the PR introduced are present; E30's tables stay
// byte-identical from the snapshot that introduced them (BENCH_6 ran them
// on flat stepping, BENCH_7 on the wake set: the engine-equivalence
// proof); and each headline promise holds where it was made.
func TestBenchTrajectoryNoE2Regression(t *testing.T) {
	var first, prev map[string]benchSnapshot
	for _, s := range benchTrajectory {
		where := "BENCH_" + strconv.Itoa(s.pr) + ".json"
		cur := loadSnapshot(t, where)
		e2, ok := cur["E2"]
		if !ok {
			t.Fatalf("%s has no E2 record", where)
		}
		if first == nil {
			first, prev = cur, cur
			continue
		}
		base := first["E2"]
		if !reflect.DeepEqual(base.Tables, e2.Tables) {
			t.Errorf("E2 tables changed in %s:\nold: %+v\nnew: %+v", where, base.Tables, e2.Tables)
		}
		if limit := base.WallMillis + base.WallMillis/20; e2.WallMillis > limit {
			t.Errorf("E2 wall time regressed in %s: %d ms -> %d ms (limit %d)", where, base.WallMillis, e2.WallMillis, limit)
		}
		for id := range prev {
			if _, ok := cur[id]; !ok {
				t.Errorf("experiment %s vanished from %s", id, where)
			}
		}
		for _, id := range s.adds {
			if _, ok := cur[id]; !ok {
				t.Errorf("experiment %s missing from %s", id, where)
			}
		}
		if old, ok := prev["E30"]; ok && !reflect.DeepEqual(old.Tables, cur["E30"].Tables) {
			t.Errorf("E30 tables changed in %s — the fabric runs are supposed to be byte-identical:\nold: %+v\nnew: %+v",
				where, old.Tables, cur["E30"].Tables)
		}
		for _, h := range benchHeadlines {
			if s.pr < h.pr || (h.until != 0 && s.pr > h.until) {
				continue
			}
			if rec, ok := cur[h.id]; !ok || len(rec.Tables) == 0 {
				t.Errorf("%s: experiment %s missing or without tables", where, h.id)
			} else {
				h.check(t, where, rec)
			}
		}
		prev = cur
	}
}
