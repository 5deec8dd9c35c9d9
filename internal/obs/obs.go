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
	"strconv"
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

// AppendJSON appends the event's JSON encoding to dst and returns the
// extended slice. The bytes are exactly json.Marshal's (same key order,
// same omitempty rules, same string escaping), without reflection or an
// allocation when dst has room: it is the one encoder of Event, used by
// every span sink and dump path. FuzzEventAppendJSONMatchesMarshal holds
// it to json.Marshal.
func (ev *Event) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"slot":`...)
	dst = strconv.AppendInt(dst, ev.Slot, 10)
	dst = append(dst, `,"kind":`...)
	dst = appendJSONString(dst, ev.Kind)
	dst = appendUint(dst, `,"vc":`, uint64(ev.VC))
	dst = appendInt(dst, `,"node":`, int64(ev.Node))
	dst = appendInt(dst, `,"link":`, int64(ev.Link))
	dst = appendUint(dst, `,"seq":`, ev.Seq)
	dst = appendUint(dst, `,"epoch":`, ev.Epoch)
	dst = appendInt(dst, `,"incident":`, ev.Incident)
	dst = appendInt(dst, `,"dur":`, ev.Dur)
	dst = appendInt(dst, `,"wall_us":`, ev.WallUS)
	dst = appendUint(dst, `,"trace":`, ev.Trace)
	dst = appendUint(dst, `,"span":`, ev.Span)
	dst = appendUint(dst, `,"parent":`, ev.Parent)
	return append(dst, '}')
}

// appendInt appends key and v, or nothing when v is zero (omitempty).
func appendInt(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// appendUint is appendInt for unsigned fields.
func appendUint(dst []byte, key string, v uint64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendUint(append(dst, key...), v, 10)
}

// appendJSONString appends s as a JSON string. Every kind is printable
// ASCII that needs no escape and is copied as is; anything else (quotes,
// backslashes, the HTML characters json.Marshal escapes, control bytes,
// non-ASCII) goes through json.Marshal so the escaping stays its own.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
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
