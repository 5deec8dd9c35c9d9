// Package obs is the unified observability layer of the AN2 reproduction:
// it spans the data plane (simnet, switchnode), the schedulers, and the
// control plane (reconfig, recovery, ctrlnet, chaos) with two instruments.
//
// The first is a Registry of labeled counters, gauges, histograms and
// slot-clock ring-buffer time series. Counters and histograms are sharded:
// each writer (a switch, a control loop, a service session) adds
// into its own cache-line-padded slot with a single atomic, so the hot
// path never contends, and export sums the shards. The whole registry is
// optional — a nil *Registry hands out nil instrument handles, and every
// method on a nil handle returns after one pointer comparison: no
// allocation, no atomic, no map lookup. Packages therefore thread
// *Registry (and the handles derived from it) straight through their hot
// paths unconditionally; "observability off" is the nil zero value, and
// costs nothing measurable (experiment E29 quantifies it).
//
// The second is a correlated event model: Event is the one trace record
// shared by every plane (simnet aliases its TraceEvent to it). Beyond the
// data-plane fields (slot, kind, VC, node, link, seq) an Event carries the
// span fields Epoch (the reconfiguration epoch in force), Incident (the
// recovery loop's incident id) and Dur (a span length in slots), so a
// single JSONL stream joins cells, matchings, reconfiguration rounds and
// retransmissions on one timeline. WriteChromeTrace renders such a stream
// as Chrome trace_event JSON for Perfetto; Analyze (cmd/an2trace) answers
// "where did this cell's latency go?" offline.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Event is one observable event from any plane of the system. It is the
// span model shared by simnet (which aliases TraceEvent to it), recovery,
// chaos and the offline analyzers; field types are primitive on purpose so
// this package stays dependency-free and importable from everywhere.
type Event struct {
	Slot int64  `json:"slot"`
	Kind string `json:"kind"`
	VC   uint32 `json:"vc,omitempty"`
	Node int32  `json:"node,omitempty"`
	Link int32  `json:"link,omitempty"`
	Seq  uint64 `json:"seq,omitempty"`

	// Span correlation fields. Epoch is the reconfiguration epoch the
	// emitter believed in force; Incident numbers the recovery loop's
	// incidents (1-based; 0 = none); Dur is a span length in slots for
	// events that describe an interval rather than an instant (a reconfig
	// round's convergence, an incident's outage window).
	Epoch    uint64 `json:"epoch,omitempty"`
	Incident int64  `json:"incident,omitempty"`
	Dur      int64  `json:"dur,omitempty"`

	// Distributed-tracing fields (the svc-* kinds). WallUS is the span's
	// start on the emitting process's wall clock in µs since the Unix
	// epoch — service spans carry it alongside the slot clock because two
	// processes share no slot clock, and MergeTraces aligns the wall
	// clocks instead. Trace names the logical client operation (shared by
	// every retransmit, backoff wait, refusal and re-attach the operation
	// caused); Span the individual attempt or server-side stage; Parent
	// the span this one is causally under (0 = root). For svc-* kinds Dur
	// is the span length in µs, not slots.
	WallUS int64  `json:"wall_us,omitempty"`
	Trace  uint64 `json:"trace,omitempty"`
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
}

// ReadJSONL decodes a JSONL event stream (the format simnet.JSONLTracer
// writes), one Event per line. Blank lines are skipped; a malformed line
// fails with its line number — except a malformed FINAL line, which is
// dropped silently: a span file from a SIGKILLed or panicking process
// (the flight-recorder use case) legitimately ends mid-line, and the
// trace up to the cut must stay readable.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []Event
	line := 0
	var pending error
	for sc.Scan() {
		line++
		if pending != nil {
			return nil, pending
		}
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			pending = fmt.Errorf("obs: line %d: %w", line, err)
			continue
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: read: %w", err)
	}
	return out, nil
}
