package main

// This file is the benchmark's vocabulary: the workloads, the end-to-end
// metrics with their regression bounds, the per-layer metrics, and the
// projection BENCHMARK.json publishes to the driver. Later issues cite these
// names; README.md defines each metric and says which end-to-end metric each
// per-layer metric should move.

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name   string
	Fabric bool // data-plane workload (simulated slots) vs service workload (wall-clock flows)
	Why    string
}

var workloadSpecs = []workloadSpec{
	{"fabric_dense", true, "9-switch torus, every switch busy every slot: matching and switchnode.Step do the work, guaranteed and best-effort share each crossbar"},
	{"fabric_sparse", true, "720-switch fat-tree with 4 circuits: about 1% of switches carry traffic, so the per-slot sweep over quiescent switches (simnet overhead) dominates"},
	{"svc_churn", false, "closed-loop open+close over loopback UDP at concurrency 2: the pure request path codec, socket, queue, admission, reply with no data-plane traffic"},
	{"svc_mixed", false, "same service with traffic frames and a ring of open VCs: admission shares the single server thread with data-plane stepping"},
	{"svc_traced", false, "svc_churn with span writer and flight recorder on in server and clients: the only workload with obs on the request path"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloadSpecs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// Scopes say which workloads report a metric.
const (
	onAll    = "all"
	onFabric = "fabric"
	onSvc    = "svc"
	onLadder = "ladder" // measured by the layer ladder, the same on every workload
)

func scopeCovers(scope string, w workloadSpec) bool {
	switch scope {
	case onAll, onLadder:
		return true
	case onFabric:
		return w.Fabric
	case onSvc:
		return !w.Fabric
	}
	return scope == w.Name
}

// e2eSpec is one end-to-end metric. Bound is the share of the base value
// by which the median may worsen before -compare calls it a regression;
// Slack is an absolute allowance on top (setup times of a few milliseconds
// and a fraction that is zero today cannot carry a relative bound alone).
type e2eSpec struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
	Slack  float64
	On     string
}

var e2eSpecs = []e2eSpec{
	{"setup_s", "s", "lower", 0.20, 0.050, onAll},
	{"slots_per_s", "1/s", "higher", 0.15, 0, onFabric},
	{"slot_p50_us", "us", "lower", 0.25, 0, onFabric},
	{"slot_p99_us", "us", "lower", 0.25, 0, onFabric},
	{"delivered_per_slot", "cells/slot", "higher", 0.01, 0, onFabric},
	{"be_latency_p99_slots", "slots", "lower", 0.20, 0, onFabric},
	{"gtd_latency_max_slots", "slots", "lower", 0.15, 0, onFabric},
	{"setups_per_s", "1/s", "higher", 0.07, 0, onSvc},
	{"setup_p50_us", "us", "lower", 0.15, 0, onSvc},
	{"setup_p99_us", "us", "lower", 0.25, 0, onSvc},
	{"traffic_delivered_frac", "frac", "higher", 0, 0.02, "svc_mixed"},
	{"failed_frac", "frac", "lower", 0, 0, onAll},
	{"live_heap_mb", "MiB", "lower", 0.15, 0, onAll},
}

// p99LimitUS is the service's latency limit: a run whose setup_p99_us is
// over it is flagged.
const p99LimitUS = 2000

// contractSpec is one of the end-to-end metrics BENCHMARK.json publishes.
// The driver wants every published metric from every workload, so the
// throughput and latency columns are projections: each workload fills them
// from its own metric of that kind.
type contractSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Fabric string // e2e metric a fabric workload reports under this name
	Svc    string // e2e metric a service workload reports under this name
}

var contractSpecs = []contractSpec{
	{"setup_s", "s", "lower", 0.25, "setup_s", "setup_s"},
	{"ops_per_s", "1/s", "higher", 0.25, "slots_per_s", "setups_per_s"},
	{"op_p99_us", "us", "lower", 0.25, "slot_p99_us", "setup_p99_us"},
	{"live_heap_mb", "MiB", "lower", 0.25, "live_heap_mb", "live_heap_mb"},
}

func (c contractSpec) source(w workloadSpec) string {
	if w.Fabric {
		return c.Fabric
	}
	return c.Svc
}

// layerSpec is one per-layer metric and the workloads that report it.
type layerSpec struct {
	Name   string
	Unit   string
	Better string
	On     string
}

var layerSpecs = []layerSpec{
	// Data plane.
	{"pim.match_ns", "ns", "lower", onLadder},
	{"pim.match_allocs", "count", "lower", onLadder},
	{"pim.match_fill_frac", "frac", "higher", onLadder},
	{"pim.match_sat_ns", "ns", "lower", onLadder},
	{"islip.match_ns", "ns", "lower", onLadder},
	{"switchnode.step_ns", "ns", "lower", onLadder},
	{"switchnode.step_allocs", "count", "lower", onLadder},
	{"switchnode.step_reserved_ns", "ns", "lower", onLadder},
	{"switchnode.step_idle_ns", "ns", "lower", onLadder},
	{"switchnode.self_ns", "ns", "lower", onLadder},
	{"simnet.slot_ns", "ns", "lower", onFabric},
	{"simnet.allocs_per_slot", "count", "lower", onFabric},
	{"simnet.active_switch_frac", "frac", "lower", onFabric},
	{"simnet.idle_skipped_frac", "frac", "higher", onFabric},
	{"simnet.cell_hops_per_slot", "count", "higher", onFabric},
	{"simnet.ns_per_cell_hop", "ns", "lower", onFabric},
	{"simnet.self_frac", "frac", "lower", onFabric},
	{"core.send_ns", "ns", "lower", onLadder},
	{"core.send_refused_frac", "frac", "lower", onFabric},
	{"gen.busy_frac", "frac", "lower", onAll},
	{"delivered_per_slot", "cells/slot", "higher", onFabric},
	{"be_latency_p99_slots", "slots", "lower", onFabric},
	{"gtd_latency_max_slots", "slots", "lower", onFabric},
	// Service plane.
	{"proto.marshal_ns", "ns", "lower", onLadder},
	{"proto.unmarshal_ns", "ns", "lower", onLadder},
	{"proto.allocs_per_msg", "count", "lower", onLadder},
	{"proto.frame_bytes", "bytes", "lower", onLadder},
	{"ctrlnet.udp_rtt_p50_us", "us", "lower", onLadder},
	{"ctrlnet.udp_rtt_p99_us", "us", "lower", onLadder},
	{"ctrlnet.udp_allocs_per_msg", "count", "lower", onLadder},
	{"ctrlnet.udp_rejected", "count", "lower", onLadder},
	{"svc.handle_ns", "ns", "lower", onLadder},
	{"svc.handle_open_ns", "ns", "lower", onLadder},
	{"svc.handle_allocs", "count", "lower", onLadder},
	{"svc.traffic_handle_ns", "ns", "lower", onLadder},
	{"core.admit_be_ns", "ns", "lower", onLadder},
	{"core.admit_gtd_ns", "ns", "lower", onLadder},
	{"core.close_ns", "ns", "lower", onLadder},
	{"bwcentral.request_ns", "ns", "lower", onLadder},
	{"routing.route_ns", "ns", "lower", onLadder},
	{"schedule.insert_ns", "ns", "lower", onLadder},
	{"schedule.insert_moves_mean", "count", "lower", onLadder},
	{"svc.self_ns", "ns", "lower", onLadder},
	{"svc.client_rpc_us", "us", "lower", onLadder},
	{"svc.queue_wait_us", "us", "lower", onSvc},
	{"svc.client_overhead_us", "us", "lower", onSvc},
	{"svc.unattributed_frac", "frac", "lower", onSvc},
	{"svc.retransmits", "count", "lower", onSvc},
	{"svc.replays", "count", "lower", onSvc},
	{"svc.refused", "count", "lower", onSvc},
	{"svc.shed", "count", "lower", onSvc},
	{"svc.orphan_replies", "count", "lower", onSvc},
	{"svc.allocs_per_flow", "count", "lower", onSvc},
	{"svc.dataplane_slots_per_s", "1/s", "higher", onSvc},
	{"svc.traffic_accept_frac", "frac", "higher", "svc_mixed"},
	{"traffic_delivered_frac", "frac", "higher", "svc_mixed"},
	{"obs.span_emit_ns", "ns", "lower", onLadder},
	{"obs.span_emit_allocs", "count", "lower", onLadder},
	{"obs.ring_put_ns", "ns", "lower", onLadder},
	{"obs.ring_put_allocs", "count", "lower", onLadder},
	{"obs.spans_per_flow", "count", "lower", "svc_traced"},
	{"obs.traced_throughput_ratio", "frac", "higher", "svc_traced"},
	{"failed_frac", "frac", "lower", onAll},
	{"bench.trace_overhead_frac", "frac", "lower", onAll},
}

// unattributedLimit fails the traced pass of svc_churn when the flow budget
// leaves more than this share of setup_p50_us unexplained.
const unattributedLimit = 0.15
