// Command an2trace analyzes a JSONL event trace written by the simulator
// (an2sim -trace, simnet.JSONLTracer, or chaos.RunObserved) entirely
// offline: it reconstructs per-circuit latency breakdowns, recovery
// incident timelines, and output-port contention from the event stream
// alone — no access to the run that produced it.
//
// Usage:
//
//	an2trace run.jsonl             # full text report
//	an2trace -top 5 run.jsonl      # only the 5 most contended ports
//	an2trace -json run.jsonl       # the analysis as one JSON object
//	an2trace -chrome out.json run.jsonl
//	an2sim -trace - ... | an2trace # read the stream from stdin
//
// Cross-process service traces (see DESIGN.md §16):
//
//	an2trace -merge client.jsonl server.jsonl [server2.jsonl ...]
//
// joins the span streams two processes wrote with an2sim -trace-spans
// (give each server incarnation's file separately — a killed server's
// file legitimately ends mid-line and is repaired per file):
// it estimates each server incarnation's clock offset from matched
// request/reply pairs (NTP midpoint method, per-incarnation median),
// aligns server spans onto the client clock, and reports per-tenant
// latency decomposition (network / server queue / handler / backoff /
// unavailability) plus any restart unavailability windows — all from the
// traces alone. -json emits the merge as one JSON object instead.
//
// A flight-recorder dump (an2sim -dump-path, written on panic, drain,
// shed, or a refusal-rate trigger) is the same span JSONL: loading it as
// a single file prints the span listing report.
//
// With -chrome the trace is converted to Chrome trace_event format and
// written to the named file; load it in Perfetto (ui.perfetto.dev) or
// chrome://tracing to see data-plane cells (pid 1, one track per VC) and
// control-plane recovery spans (pid 2, one track per incident) on a single
// correlated timeline, at 10 µs per cell slot (the recovery loop's SlotUS).
//
// The latency decomposition needs per-hop events (an2sim -trace-hops or
// simnet.Config.TraceHops); without them the report still shows totals,
// incidents, and drops, but queueing/head-of-line attribution collapses
// into a single "queue" column.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/svc"
)

// slotUS is the cell slot time, in microseconds, that -chrome timestamps
// assume: recovery.Config.SlotUS's default.
const slotUS = 10

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "an2trace:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("an2trace", flag.ContinueOnError)
	var (
		chrome   = fs.String("chrome", "", "convert to Chrome trace_event JSON at this path (Perfetto-loadable)")
		top      = fs.Int("top", 10, "contended output ports to show (0 hides the table)")
		jsonFlag = fs.Bool("json", false, "emit the analysis as JSON instead of tables")
		merge    = fs.Bool("merge", false, "merge a client and a server span stream (exactly two file args) into clock offsets, latency decomposition, and unavailability windows")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *merge {
		if fs.NArg() < 2 {
			return fmt.Errorf("-merge needs a client trace and at least one server trace: client.jsonl server.jsonl [server2.jsonl ...]")
		}
		client, err := readFile(fs.Arg(0))
		if err != nil {
			return err
		}
		// Each server incarnation may have written its own file (and a
		// SIGKILLed one ends mid-line, which only per-file reading can
		// forgive); read separately, merge as one server stream.
		var server []obs.Event
		for _, name := range fs.Args()[1:] {
			evs, err := readFile(name)
			if err != nil {
				return err
			}
			server = append(server, evs...)
		}
		res := obs.MergeTraces(client, server)
		if *jsonFlag {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(res)
		}
		res.WriteReport(w)
		return nil
	}

	var r io.Reader
	switch name := fs.Arg(0); name {
	case "", "-":
		r = os.Stdin
	default:
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	events, err := obs.ReadJSONL(r)
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("no events in trace")
	}

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTrace(f, events, slotUS); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "chrome trace: %d events written to %s (load in ui.perfetto.dev)\n",
			len(events), *chrome)
		return nil
	}

	if spansOnly(events) {
		spanReport(w, events)
		return nil
	}
	a := obs.Analyze(events)
	if *jsonFlag {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(a)
	}
	report(w, a, *top)
	return nil
}

// readFile loads one JSONL event file ("-" for stdin).
func readFile(name string) ([]obs.Event, error) {
	if name == "-" {
		return obs.ReadJSONL(os.Stdin)
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return obs.ReadJSONL(f)
}

// spansOnly reports whether the trace is a pure service-span stream — a
// -trace-spans file or a flight-recorder dump — which the slot-based
// Analyze cannot say anything useful about.
func spansOnly(events []obs.Event) bool {
	for i := range events {
		if !strings.HasPrefix(events[i].Kind, "svc-") {
			return false
		}
	}
	return len(events) > 0
}

// spanReport summarizes a single-process span stream: what a recorder
// dump holds, without needing the other side for a merge.
func spanReport(w io.Writer, events []obs.Event) {
	traces := make(map[uint64]bool)
	incs := make(map[int32]bool)
	kinds := make(map[string]int)
	refusals := make(map[uint64]int)
	var dumps []obs.Event
	for i := range events {
		ev := &events[i]
		kinds[ev.Kind]++
		if ev.Trace != 0 {
			traces[ev.Trace] = true
		}
		if ev.Node != 0 {
			incs[ev.Node] = true
		}
		switch ev.Kind {
		case obs.KindSvcRefuse:
			refusals[ev.Seq]++
		case obs.KindSvcDump:
			dumps = append(dumps, *ev)
		}
	}
	var incList []int32
	for inc := range incs {
		incList = append(incList, inc)
	}
	sort.Slice(incList, func(i, j int) bool { return incList[i] < incList[j] })
	fmt.Fprintf(w, "service span stream: %d spans, %d traces, incarnations %v\n",
		len(events), len(traces), incList)

	kt := metrics.NewTable("spans by kind", "kind", "count")
	var kindList []string
	for k := range kinds {
		kindList = append(kindList, k)
	}
	sort.Strings(kindList)
	for _, k := range kindList {
		kt.AddRow(k, kinds[k])
	}
	fmt.Fprintln(w, kt.String())

	if len(refusals) > 0 {
		rt := metrics.NewTable("refusals by code", "code", "refusal", "count")
		var codes []uint64
		for c := range refusals {
			codes = append(codes, c)
		}
		sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
		for _, c := range codes {
			rt.AddRow(c, svc.RefusalString(int32(c)), refusals[c])
		}
		fmt.Fprintln(w, rt.String())
	}
	for _, d := range dumps {
		fmt.Fprintf(w, "recorder dump marker: trigger=%d wall_us=%d incarnation=%d\n",
			d.Seq, d.WallUS, d.Node)
	}
}

// report renders the full text report.
func report(w io.Writer, a *obs.Analysis, top int) {
	fmt.Fprintf(w, "trace: %d events over %d slots", a.Events, a.Slots)
	if !a.HasHops {
		fmt.Fprint(w, " (no hop events: queue column holds all waiting)")
	}
	fmt.Fprintln(w)

	vt := metrics.NewTable("per-circuit latency breakdown (slots)",
		"vc", "injected", "delivered", "drop-fault", "drop-reroute",
		"mean", "p99", "max", "transit", "queue", "hol", "outage")
	for _, v := range a.VCs {
		vt.AddRow(v.VC, v.Injected, v.Delivered, v.DroppedFault, v.DroppedReroute,
			v.MeanLat, v.P99Lat, v.MaxLat, v.Transit, v.Queue, v.HOL, v.Outage)
	}
	fmt.Fprintln(w, vt.String())

	if len(a.Incidents) > 0 {
		it := metrics.NewTable("recovery incidents",
			"id", "kind", "node", "link", "hw-slot", "detect", "reconfig", "repair", "outage", "rerouted", "epoch")
		for _, inc := range a.Incidents {
			repair, outage := "open", "open"
			if inc.RepairSlot >= 0 {
				repair = fmt.Sprint(inc.RepairSlot)
				outage = fmt.Sprint(inc.OutageSlots)
			}
			it.AddRow(inc.ID, inc.Kind, inc.Node, inc.Link,
				inc.HardwareSlot, inc.DetectSlot, inc.ReconfigSlots,
				repair, outage, inc.Rerouted, inc.Epoch)
		}
		fmt.Fprintln(w, it.String())
		if a.MaxOutageSlots >= 0 {
			fmt.Fprintf(w, "worst outage: %d slots\n\n", a.MaxOutageSlots)
		}
	}

	if top > 0 && len(a.Ports) > 0 {
		n := top
		if n > len(a.Ports) {
			n = len(a.Ports)
		}
		pt := metrics.NewTable(fmt.Sprintf("top %d contended output ports", n),
			"switch", "out-link", "departures", "wait-slots")
		for _, p := range a.Ports[:n] {
			pt.AddRow(p.Node, p.Link, p.Departures, p.WaitSlots)
		}
		fmt.Fprintln(w, pt.String())
	}
}
