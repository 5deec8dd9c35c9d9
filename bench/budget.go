package main

import (
	"fmt"
	"io"
	"math"
)

// deriveLayers fills in the per-layer metrics that need more than one
// measurement: a workload's traced pass, its spans-off pass, and the ladder.
// It also checks that svc_churn's flow budget adds up. With gate set a budget
// that does not is a failure of the run; without (quick sizing, where a rung
// is a few hundred operations, and the driver's form, whose "correct" speaks
// of the program's outputs only) it is noted.
func deriveLayers(spec workloadSpec, plain, solo, traced *workloadResult, lad *ladder, churnHeadline float64, gate bool) {
	L := traced.layer
	for _, name := range []string{"delivered_per_slot", "be_latency_p99_slots", "gtd_latency_max_slots", "failed_frac"} {
		if m, ok := traced.e2e[name]; ok {
			L[name] = m
		}
	}
	if plain.headline > 0 {
		L["bench.trace_overhead_frac"] = single((plain.headline-traced.headline)/plain.headline, "frac", 1)
	}
	if spec.Fabric {
		b := fabricBudget(traced, lad)
		if b.runNS > 0 {
			L["simnet.self_frac"] = single(b.selfNS/b.runNS, "frac", 1)
		}
		return
	}
	b := flowBudget(plain, solo, lad)
	L["svc.queue_wait_us"] = single(b.queueUS, "us", 1)
	L["svc.client_overhead_us"] = single(b.clientUS, "us", 1)
	L["svc.unattributed_frac"] = single(b.unattributedUS/b.p50US, "frac", 1)
	if spec.Name == "svc_churn" && math.Abs(b.unattributedUS)/b.p50US > unattributedLimit {
		msg := fmt.Sprintf("flow budget leaves %.0f%% of setup_p50_us unattributed (limit %.0f%%)",
			100*b.unattributedUS/b.p50US, 100*unattributedLimit)
		if gate {
			traced.fail("%s", msg)
		} else {
			traced.notes = append(traced.notes, msg)
		}
	}
	if spec.Name == "svc_traced" && churnHeadline > 0 {
		L["obs.traced_throughput_ratio"] = single(plain.headline/churnHeadline, "frac", 1)
	}
}

// slotBudget splits the host time of one simulated slot.
type slotBudget struct {
	genNS, runNS              float64 // generator; LAN.Run(1)
	steppedN, idleN, hops     float64 // switches fully stepped and idle-stepped per slot; cell hops per slot
	floorNS, cellNS           float64 // ladder prices: an empty Step, one cell hop
	steppedNS, hopsNS, idleNS float64
	selfNS                    float64 // the rest of LAN.Run
}

// fabricBudget prices a fabric run's slot with the ladder. A switch the
// engine did not idle-step costs an empty Step (switchnode.step_reserved_ns);
// each cell hop costs what a cell costs a saturated switch,
// (step_ns - step_reserved_ns) / cells moved per saturated Step; an
// idle-stepped switch costs switchnode.step_idle_ns. What is left of LAN.Run
// is simnet's own: the sweep over switches, links, injection, delivery, the
// worker barrier.
func fabricBudget(r *workloadResult, lad *ladder) slotBudget {
	b := slotBudget{
		genNS: r.genNSPerSlot, runNS: r.layer["simnet.slot_ns"].Value,
		hops:    r.layer["simnet.cell_hops_per_slot"].Value,
		floorNS: lad.m["switchnode.step_reserved_ns"].Value,
	}
	if lad.satCellsPerStep > 0 {
		b.cellNS = (lad.m["switchnode.step_ns"].Value - b.floorNS) / lad.satCellsPerStep
	}
	b.idleN = float64(r.switches) * r.layer["simnet.idle_skipped_frac"].Value
	b.steppedN = float64(r.switches) - b.idleN
	b.steppedNS = b.steppedN * b.floorNS
	b.hopsNS = b.hops * b.cellNS
	b.idleNS = b.idleN * lad.m["switchnode.step_idle_ns"].Value
	b.selfNS = b.runNS - b.steppedNS - b.hopsNS - b.idleNS
	return b
}

// flowSplit splits the median Client.Open of a service workload.
type flowSplit struct {
	p50US, soloUS, encodeUS, socketUS, decodeUS, admitUS, serverSelfUS float64
	queueUS, clientUS, clientRPCUS, unattributedUS                     float64
}

// flowBudget prices one open with the ladder. The socket round trip and the
// server's handling are measured rungs, and they price a request that has
// the server to itself; the median with one session is therefore the base,
// and what the second session adds — waiting behind its request, sharing two
// CPUs with it — is the queue row, measured by difference. What remains of
// the one-session median is the client's side of the socket, priced by the
// svc.client_rpc_us rung (encode, decode, nonce table, timer, the reader's
// hand-off to the caller); the rest is the unattributed residual, which may
// be negative where two rungs both count one goroutine wake-up.
func flowBudget(r, solo *workloadResult, lad *ladder) flowSplit {
	us := func(name string) float64 { return lad.m[name].Value / 1e3 }
	b := flowSplit{
		p50US:    r.e2e["setup_p50_us"].Value,
		encodeUS: us("proto.marshal_ns"), decodeUS: us("proto.unmarshal_ns"),
		socketUS: lad.m["ctrlnet.udp_rtt_p50_us"].Value,
		admitUS:  (1-gtdShare)*us("core.admit_be_ns") + gtdShare*us("core.admit_gtd_ns"),
	}
	b.soloUS = b.p50US
	if solo != nil {
		b.soloUS = solo.e2e["setup_p50_us"].Value
	}
	b.queueUS = b.p50US - b.soloUS
	handleUS := us("svc.handle_open_ns")
	b.serverSelfUS = handleUS - b.decodeUS - b.admitUS - b.encodeUS
	b.clientUS = b.soloUS - b.socketUS - handleUS
	b.clientRPCUS = lad.m["svc.client_rpc_us"].Value - b.encodeUS - b.decodeUS
	b.unattributedUS = b.clientUS - lad.m["svc.client_rpc_us"].Value
	return b
}

// printBudget prints the budget table of one workload: rows that add up to
// the measured total, each with its share.
func printBudget(w io.Writer, spec workloadSpec, plain, solo, traced *workloadResult, lad *ladder) {
	if traced == nil {
		return
	}
	row := func(label string, v, total float64, unit string) {
		fmt.Fprintf(w, "  %-46s %12.2f %-3s %6.1f%%\n", label, v, unit, 100*v/total)
	}
	if spec.Fabric {
		b := fabricBudget(traced, lad)
		total := b.genNS + b.runNS
		fmt.Fprintf(w, "\n== %s: slot budget (host ns per simulated slot, traced pass) ==\n", spec.Name)
		row("generator (inject + verify)", b.genNS, total, "ns")
		row(fmt.Sprintf("%.1f stepped switches x step_reserved_ns %.0f", b.steppedN, b.floorNS), b.steppedNS, total, "ns")
		row(fmt.Sprintf("%.2f cell hops x %.0f ns per cell", b.hops, b.cellNS), b.hopsNS, total, "ns")
		row(fmt.Sprintf("%.1f idle switches x step_idle_ns", b.idleN), b.idleNS, total, "ns")
		row("simnet self (sweep, links, inject, deliver)", b.selfNS, total, "ns")
		row("total = generator + simnet.slot_ns", total, total, "ns")
		return
	}
	if spec.Name == "svc_mixed" {
		return // its median open shares the server with traffic frames; the budget is svc_churn's
	}
	b := flowBudget(plain, solo, lad)
	fmt.Fprintf(w, "\n== %s: flow budget (us of the median Client.Open, spans off) ==\n", spec.Name)
	row("client encode (proto.marshal_ns)", b.encodeUS, b.p50US, "us")
	row("socket round trip (ctrlnet.udp_rtt_p50_us)", b.socketUS, b.p50US, "us")
	row("server decode (proto.unmarshal_ns)", b.decodeUS, b.p50US, "us")
	row("admission (core.admit_*_ns, 80/20 mix)", b.admitUS, b.p50US, "us")
	row("server self (svc.handle_open_ns - the above)", b.serverSelfUS, b.p50US, "us")
	row("reply encode (proto.marshal_ns)", b.encodeUS, b.p50US, "us")
	row("client decode (proto.unmarshal_ns)", b.decodeUS, b.p50US, "us")
	row("queue and contention (p50 - p50 at 1 session)", b.queueUS, b.p50US, "us")
	row("client machinery (svc.client_rpc_us - codec)", b.clientRPCUS, b.p50US, "us")
	row("unattributed", b.unattributedUS, b.p50US, "us")
	row("total = setup_p50_us", b.p50US, b.p50US, "us")
}
