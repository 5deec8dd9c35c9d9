package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ctrlnet"
	"repro/internal/metrics"
	"repro/internal/svc"
	"repro/internal/svcsys"
	"repro/internal/topology"
	"repro/internal/workload"
)

// E32: production service mode. The paper's control plane is not a
// simulation artifact — it is the allocator a building full of hosts
// actually calls. This experiment runs the repo in that deployment shape:
// an AN2 LAN behind the multi-tenant VC service, 64 tenant sessions
// churning 100k+ flows while one aggressor tenant demands far more
// guaranteed bandwidth than its quota allows. Measured: what the protocol
// decided — admissions by class, refusals by reason, traffic queued — and
// isolation: the aggressor must be pinned at zero guaranteed admissions
// while the light tenants admit near-uniformly (Jain ≈ 1000).
//
// The service runs composed (svcsys.System) on its virtual clock, so the
// tables replay to the byte. The set-up rate and admission latency over a
// real socket are bench's svc_churn workload.

func init() {
	register(&Experiment{
		ID:    "E32",
		Title: "Service mode: multi-tenant VC service under tenant churn",
		Claim: "the control plane serves as a real multi-tenant service: 100k tenant flows complete, and per-tenant quotas isolate an over-demanding aggressor without degrading light tenants' admission or fairness",
		Run:   runE32,
		Quick: false,
	})
}

// e32Flows is the full-run flow budget (the ISSUE-8 acceptance floor).
const e32Flows = 100_000

// serviceLAN is the service experiments' network: a 4×4 torus, three
// hosts per switch, 128-slot frames.
func serviceLAN(seed int64) (*core.LAN, error) {
	g, err := topology.Torus(4, 4, 10)
	if err != nil {
		return nil, err
	}
	if err := topology.AttachHosts(g, 3, 1); err != nil {
		return nil, err
	}
	return core.New(core.Config{Topology: g, FrameSlots: 128, Seed: seed})
}

// serviceSystem is the service composed over serviceLAN on a fault-free
// network: incarnation 1, 8 circuits and 4 guaranteed cells/frame per
// tenant.
func serviceSystem(seed int64) (*svcsys.System, error) {
	lan, err := serviceLAN(seed)
	if err != nil {
		return nil, err
	}
	return svcsys.New(svc.Config{LAN: lan, MaxVCsPerTenant: 8, MaxGuaranteedPerTenant: 4, Incarnation: 1}, ctrlnet.Config{})
}

func runE32(seed int64) ([]*metrics.Table, error) {
	sys, err := serviceSystem(seed)
	if err != nil {
		return nil, err
	}
	// Tenant 1, the aggressor, demands 8 cells/frame per guaranteed request
	// against the 4-cell tenant quota: every one of them must be refused,
	// and none of that pressure may reach other tenants.
	rep, err := workload.DriveTenants(sys, workload.TenantsConfig{
		Tenants: 64,
		Flows:   e32Flows,
		Seed:    seed,
	})
	if err != nil {
		return nil, err
	}
	st := sys.Server().Stats()

	t1 := metrics.NewTable(
		fmt.Sprintf("E32a — service protocol (%d tenants, %d flows, %d virtual ms)", rep.Tenants, rep.Flows, sys.NowMS()),
		"metric", "value")
	t1.AddRow("flows completed", rep.Flows)
	t1.AddRow("admitted best-effort", rep.AdmittedBE)
	t1.AddRow("admitted guaranteed", rep.AdmittedGtd)
	t1.AddRow("refused", rep.Refused)
	t1.AddRow("traffic cells queued", st.TrafficCells)
	t1.AddRow("server replays (dup nonces)", st.Replays)

	t2 := metrics.NewTable("E32b — tenant isolation under an over-quota aggressor",
		"metric", "value")
	t2.AddRow("aggressor gtd admit rate", fmt.Sprintf("%.3f", rep.AggressorGtdAdmitRate))
	t2.AddRow("light-tenant gtd admit rate", fmt.Sprintf("%.3f", rep.LightGtdAdmitRate))
	t2.AddRow("light-tenant fairness (Jain ×1000)", rep.FairnessX1000)
	t2.AddRow("refusals: quota-cells", rep.RefusedBy[svc.RefuseQuotaCells])
	t2.AddRow("refusals: quota-vcs", rep.RefusedBy[svc.RefuseQuotaVCs])
	t2.AddRow("refusals: capacity", rep.RefusedBy[svc.RefuseCapacity])
	return []*metrics.Table{t1, t2}, nil
}
