package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"
)

// svcDigest hashes everything a service chaos run reports: the violation,
// the tenant-observed totals, the last incarnation's accounting (refusals
// in code order) and every flight-recorder span.
func svcDigest(res *SvcResult) string {
	h := sha256.New()
	if v := res.Violation; v != nil {
		fmt.Fprintf(h, "violation %s @%d: %s\n", v.Invariant, v.Slot, v.Detail)
	}
	fmt.Fprintf(h, "restarts %d grants %d reattaches %d byes %d\n",
		res.Restarts, res.Grants, res.Reattaches, res.Byes)
	st := res.FinalStats
	codes := make([]int32, 0, len(st.RefusedBy))
	for c := range st.RefusedBy {
		codes = append(codes, c)
	}
	slices.Sort(codes)
	for _, c := range codes {
		fmt.Fprintf(h, "refused %d: %d\n", c, st.RefusedBy[c])
	}
	st.RefusedBy = nil
	fmt.Fprintf(h, "%+v\n", st)
	for _, ev := range res.Recorder {
		fmt.Fprintf(h, "%+v\n", ev)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TestSvcChaosPinned pins the complete outcome of the hand-written
// service schedules and of GenerateSvc seeds 1–6. A change to how the
// harness composes the server, the tenants and the channel must leave
// every digest where it is.
func TestSvcChaosPinned(t *testing.T) {
	kill := func(seed int64, start, end int64) SvcSchedule {
		return SvcSchedule{
			Seed: seed, HorizonMS: 2000, GraceMS: 600, Tenants: 6,
			LeaseDurMS: 400, OrphanGraceMS: 400,
			Outages: []SvcOutage{{Kill: true, StartMS: start, EndMS: end}},
		}
	}
	vanish := func(unsafe bool) SvcSchedule {
		return SvcSchedule{
			Seed: 11, HorizonMS: 1500, GraceMS: 500, Tenants: 5, Vanish: 2,
			LeaseDurMS: 400, OrphanGraceMS: 400,
			UnsafeNoLeaseGC: unsafe,
			Outages:         []SvcOutage{{Kill: true, StartMS: 500, EndMS: 650}},
		}
	}
	type pin struct {
		name string
		s    SvcSchedule
		want string
	}
	cases := []pin{
		{"kill-forces-reattach", kill(3, 700, 900), "73fe6f66e931000e7bffb038c699b785"},
		{"leak-without-lease-gc", vanish(true), "19c1f74e4ac4a3aaf1301315281a6895"},
		{"lease-gc-collects-vanished", vanish(false), "6bb387abbe33da239065eeb02ff2f2f3"},
		{"recorder-survives-restart", kill(3, 1600, 1800), "b99487fdb38a22f1f902d122f20baff4"},
	}
	for i, want := range []string{
		"f7678ac91fb9a490f99ab88f56496141", "748a71612599762ff124c57ed76f6c59",
		"06bf07519dbe98df730c0346103eca45", "80ec53355f59d3704d8842434e1be5e7",
		"0e24f47b8ab1134471206be14e08e8f6", "0ec23acbe3301211d7ba9d15479f4b43",
	} {
		seed := int64(i + 1)
		cases = append(cases, pin{fmt.Sprintf("generated-%d", seed), GenerateSvc(seed, SvcGenConfig{}), want})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := RunSvc(c.s)
			if err != nil {
				t.Fatal(err)
			}
			if got := svcDigest(res); got != c.want {
				t.Errorf("digest %s, pinned %s", got, c.want)
			}
		})
	}
}
