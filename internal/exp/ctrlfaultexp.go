package exp

import (
	"fmt"

	"repro/internal/ctrlnet"
	"repro/internal/metrics"
	"repro/internal/reconfig"
	"repro/internal/topology"
)

// E28: what an unreliable control plane costs the reconfiguration
// protocol. The paper's protocol must "work correctly no matter when and
// where failures occur" — including failures of the control messages
// themselves. Here the hardened runner executes rounds on a 3×3 torus
// with two concurrent triggers while the control channel drops 0–30% of
// messages (plus fixed 10% duplication and 10% reordering, the chaos
// harness's baseline mix). Reported per loss rate, over 20 seeded
// rounds: how often all nine switches still agreed, the mean and worst
// convergence time, and how much repair work — retransmissions and
// watchdog re-triggers — the convergence cost.

func init() {
	register(&Experiment{
		ID:    "E28",
		Title: "Reconfiguration convergence vs control-message loss rate",
		Claim: "Retransmission and idempotent receipt keep distributed reconfiguration converging to one consistent view as control loss rises to 30%, at a measured cost in time and repair traffic (§2)",
		Quick: true,
		Run:   runE28,
	})
}

// e28Rounds is how many seeded rounds each loss rate aggregates.
const e28Rounds = 20

func runE28(seed int64) ([]*metrics.Table, error) {
	g, err := topology.Torus(3, 3, 1)
	if err != nil {
		return nil, err
	}
	triggers := []reconfig.Trigger{{Node: 0}, {Node: 8, AtUS: 3}}
	t := metrics.NewTable(
		fmt.Sprintf("E28 — reconfiguration on a 3×3 torus, 2 concurrent triggers, dup=10%% reorder=10%%, %d rounds per loss rate (µs)", e28Rounds),
		"loss", "converged", "mean-us", "max-us", "msgs/round", "retx/round", "retriggers", "crc-rejects", "dropped")
	for _, lossPct := range []int{0, 5, 10, 15, 20, 25, 30} {
		var (
			converged           int
			sumUS, maxUS        int64
			msgs, retx          int64
			retriggers, rejects int64
			dropped             int64
		)
		for i := 0; i < e28Rounds; i++ {
			runner, err := reconfig.New(reconfig.Config{Topology: g})
			if err != nil {
				return nil, err
			}
			chn, err := ctrlnet.New(ctrlnet.Config{
				DropProb:    float64(lossPct) / 100,
				DupProb:     0.10,
				ReorderProb: 0.10,
				Seed:        seed*1000 + int64(lossPct)*37 + int64(i),
			})
			if err != nil {
				return nil, err
			}
			ur, err := runner.RunOver(triggers, nil, chn, reconfig.Hardening{})
			if err != nil {
				return nil, err
			}
			if ur.Converged {
				converged++
			}
			sumUS += ur.MaxCompletionUS
			if ur.MaxCompletionUS > maxUS {
				maxUS = ur.MaxCompletionUS
			}
			msgs += ur.Messages
			retx += ur.Retransmits
			retriggers += ur.Retriggers
			rejects += ur.CRCRejects
			dropped += ur.Channel.Lost()
		}
		t.AddRow(
			fmt.Sprintf("%d%%", lossPct),
			fmt.Sprintf("%d/%d", converged, e28Rounds),
			sumUS/e28Rounds, maxUS,
			msgs/e28Rounds, retx/e28Rounds,
			retriggers, rejects, dropped)
	}
	return []*metrics.Table{t}, nil
}
