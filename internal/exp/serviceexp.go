package exp

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/ctrlnet"
	"repro/internal/metrics"
	"repro/internal/svc"
	"repro/internal/topology"
	"repro/internal/workload"
)

// E32: production service mode. The paper's control plane is not a
// simulation artifact — it is the allocator a building full of hosts
// actually calls. This experiment runs the repo in that deployment shape:
// an AN2 LAN behind the multi-tenant VC service, tenants connecting over
// REAL loopback UDP sockets (the proto codec's CRC guarding every frame),
// churning 100k+ flows while one aggressor tenant demands far more
// guaranteed bandwidth than its quota allows. Measured: sustained VC
// setup rate, admission latency (request sent → reply held), and
// isolation — the aggressor must be pinned at zero guaranteed admissions
// while the light tenants admit near-uniformly (Jain ≈ 1000).
//
// Numbers here are wall-clock (sockets, goroutines, kernel scheduling),
// so this experiment is reported, not byte-compared: the package's tests
// assert the flow count on each run's tables (the E32 headline in
// exp_test.go) rather than the rates, which bench's svc_* workloads measure.

func init() {
	register(&Experiment{
		ID:    "E32",
		Title: "Service mode: multi-tenant VC service over loopback UDP under tenant churn",
		Claim: "the control plane serves as a real multi-tenant service: 100k tenant flows over socket transport sustain tens of thousands of VC setups/sec with millisecond-scale median admission latency, and per-tenant quotas isolate an over-demanding aggressor without degrading light tenants' admission or fairness",
		Run:   runE32,
		Quick: false,
	})
}

// e32Flows is the full-run flow budget (the ISSUE-8 acceptance floor).
const e32Flows = 100_000

func runE32(seed int64) ([]*metrics.Table, error) {
	g, err := topology.Torus(4, 4, 10)
	if err != nil {
		return nil, err
	}
	if err := topology.AttachHosts(g, 3, 1); err != nil {
		return nil, err
	}
	lan, err := core.New(core.Config{Topology: g, FrameSlots: 128, Seed: seed})
	if err != nil {
		return nil, err
	}
	tr, err := ctrlnet.NewUDP(ctrlnet.UDPConfig{
		Local: map[topology.NodeID]string{0: "127.0.0.1:0"},
	})
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	srv, err := svc.NewServer(svc.Config{
		LAN: lan, Transport: tr, Node: 0,
		MaxVCsPerTenant:        8,
		MaxGuaranteedPerTenant: 4,
		Tick:                   time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()

	rep, err := workload.RunTenants(workload.TenantsConfig{
		ServerAddr: tr.Addr(0).String(),
		Tenants:    64,
		Flows:      e32Flows,
		// The aggressor demands 8 cells/frame per request against the
		// 4-cell tenant quota: every one of its guaranteed requests must
		// be refused, and none of that pressure may reach other tenants.
		AggressorRate: 8,
		Seed:          seed,
	})
	if err != nil {
		srv.Stop()
		return nil, err
	}
	srv.Stop()
	if err := <-serveDone; err != nil {
		return nil, err
	}
	st := srv.Stats()
	ReportSlots(st.Steps)

	t1 := metrics.NewTable(
		fmt.Sprintf("E32a — service throughput (%d tenants, %d flows over loopback UDP)", rep.Tenants, rep.Flows),
		"metric", "value")
	t1.AddRow("flows completed", rep.Flows)
	t1.AddRow("VC setups/sec (sustained)", fmt.Sprintf("%.0f", rep.SetupPerSec))
	t1.AddRow("admitted best-effort", rep.AdmittedBE)
	t1.AddRow("admitted guaranteed", rep.AdmittedGtd)
	t1.AddRow("refused", rep.Refused)
	t1.AddRow("traffic cells queued", st.TrafficCells)
	t1.AddRow("server replays (dup nonces)", st.Replays)
	t1.AddRow("wall time (s)", fmt.Sprintf("%.2f", rep.ElapsedSec))

	t2 := metrics.NewTable("E32b — admission latency, request sent to reply held (µs)",
		"metric", "value")
	t2.AddRow("mean", fmt.Sprintf("%.0f", rep.Setup.Mean))
	t2.AddRow("p50", rep.Setup.P50)
	t2.AddRow("p99", rep.Setup.P99)
	t2.AddRow("max", rep.Setup.Max)

	t3 := metrics.NewTable("E32c — tenant isolation under an over-quota aggressor",
		"metric", "value")
	t3.AddRow("aggressor gtd admit rate", fmt.Sprintf("%.3f", rep.AggressorGtdAdmitRate))
	t3.AddRow("light-tenant gtd admit rate", fmt.Sprintf("%.3f", rep.LightGtdAdmitRate))
	t3.AddRow("light-tenant fairness (Jain ×1000)", rep.FairnessX1000)
	t3.AddRow("refusals: quota-cells", rep.RefusedBy[svc.RefuseQuotaCells])
	t3.AddRow("refusals: quota-vcs", rep.RefusedBy[svc.RefuseQuotaVCs])
	t3.AddRow("refusals: capacity", rep.RefusedBy[svc.RefuseCapacity])
	return []*metrics.Table{t1, t2, t3}, nil
}
