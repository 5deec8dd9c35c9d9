package workload

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ctrlnet"
	"repro/internal/svc"
	"repro/internal/svcsys"
	"repro/internal/topology"
)

// A scaled-down E32: real server, real sockets, aggressor and light
// tenants, few thousand flows — enough to pin the harness semantics
// without the full experiment's budget.
func TestRunTenantsAgainstLiveServer(t *testing.T) {
	g, err := topology.Torus(3, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AttachHosts(g, 2, 1); err != nil {
		t.Fatal(err)
	}
	lan, err := core.New(core.Config{Topology: g, FrameSlots: 128, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ctrlnet.NewUDP(ctrlnet.UDPConfig{
		Local: map[topology.NodeID]string{0: "127.0.0.1:0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	srv, err := svc.NewServer(svc.Config{
		LAN: lan, Transport: tr, Node: 0,
		MaxVCsPerTenant: 8, MaxGuaranteedPerTenant: 4,
		Tick: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	rep, err := RunTenants(TenantsConfig{
		ServerAddr: tr.Addr(0).String(),
		Tenants:    8,
		Flows:      2000,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Stop()
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}

	if rep.Flows != 2000 {
		t.Fatalf("flows = %d, want 2000", rep.Flows)
	}
	if rep.AdmittedBE == 0 || rep.AdmittedGtd == 0 {
		t.Fatalf("no admissions in some class: BE=%d gtd=%d", rep.AdmittedBE, rep.AdmittedGtd)
	}
	if rep.Setup.Count != 2000 {
		t.Fatalf("setup histogram has %d samples, want 2000", rep.Setup.Count)
	}
	if rep.SetupPerSec <= 0 {
		t.Fatal("no setup rate measured")
	}
	// Isolation: the aggressor demands 8 cells/frame per request against
	// a 4-cell quota — every guaranteed request refused — while light
	// tenants ask for 1 and are admitted. Fairness among light tenants
	// stays high.
	if rep.AggressorGtdAdmitRate != 0 {
		t.Fatalf("aggressor admitted at rate %.2f despite over-quota demand", rep.AggressorGtdAdmitRate)
	}
	if rep.LightGtdAdmitRate < 0.9 {
		t.Fatalf("light tenants' guaranteed admit rate %.2f — aggressor leaked pressure", rep.LightGtdAdmitRate)
	}
	if rep.FairnessX1000 < 900 {
		t.Fatalf("light-tenant fairness %d/1000", rep.FairnessX1000)
	}
	if rep.RefusedBy[svc.RefuseQuotaCells] == 0 {
		t.Fatal("aggressor never hit the cell quota")
	}
	// The final state must be clean: every tenant said Bye.
	if st := srv.Stats(); st.TrafficCells == 0 {
		t.Fatal("no traffic cells queued")
	}
}

// DriveTenants runs the same fleet on the composed service's virtual
// clock: the same isolation holds, every flow completes, and two runs
// report the same numbers.
func TestDriveTenantsVirtual(t *testing.T) {
	run := func() *TenantsReport {
		g, err := topology.Torus(3, 3, 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := topology.AttachHosts(g, 2, 1); err != nil {
			t.Fatal(err)
		}
		lan, err := core.New(core.Config{Topology: g, FrameSlots: 128, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := svcsys.New(svc.Config{LAN: lan, Incarnation: 1,
			MaxVCsPerTenant: 8, MaxGuaranteedPerTenant: 4}, ctrlnet.Config{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := DriveTenants(sys, TenantsConfig{Tenants: 8, Flows: 2000, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !sys.Server().Quiesced() {
			t.Fatal("server holds sessions or circuits after every tenant said bye")
		}
		return rep
	}
	rep := run()
	if rep.Flows != 2000 || rep.Setup.Count != 2000 {
		t.Fatalf("flows = %d with %d latency samples, want 2000", rep.Flows, rep.Setup.Count)
	}
	if rep.AdmittedBE == 0 || rep.AdmittedGtd == 0 || rep.TrafficCells == 0 {
		t.Fatalf("inert run: BE=%d gtd=%d traffic=%d", rep.AdmittedBE, rep.AdmittedGtd, rep.TrafficCells)
	}
	if rep.AggressorGtdAdmitRate != 0 || rep.LightGtdAdmitRate < 0.9 || rep.FairnessX1000 < 900 {
		t.Fatalf("isolation: aggressor %.2f, light %.2f, fairness %d",
			rep.AggressorGtdAdmitRate, rep.LightGtdAdmitRate, rep.FairnessX1000)
	}
	again := run()
	if rep.AdmittedBE != again.AdmittedBE || rep.AdmittedGtd != again.AdmittedGtd ||
		rep.Refused != again.Refused || rep.TrafficCells != again.TrafficCells ||
		rep.Setup != again.Setup {
		t.Fatalf("same seed diverged: %+v vs %+v", rep, again)
	}
}
