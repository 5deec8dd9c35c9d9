package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Start and End are
// nanoseconds since the recorder's epoch; Parent is the id of the span that
// caused it (0 for a root); Flow is shared by every span of one request or
// slot batch.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Flow   uint64 `json:"flow"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps one goroutine's spans in memory. A nil recorder is the
// spans-off state: every method returns at once, so the untraced pass runs
// the same code with one pointer check per site. Each generator goroutine
// owns its recorder; ids are made unique by the lane in their top bits.
type recorder struct {
	epoch time.Time
	lane  uint64
	next  uint64
	spans []span
}

func newRecorder(epoch time.Time, lane int) *recorder {
	return &recorder{epoch: epoch, lane: uint64(lane+1) << 48, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index, to be handed to end.
func (r *recorder) begin(name string, parent, flow uint64) int {
	if r == nil {
		return -1
	}
	r.next++
	r.spans = append(r.spans, span{
		Name: name, ID: r.lane | r.next, Parent: parent, Flow: flow,
		Start: int64(time.Since(r.epoch)),
	})
	return len(r.spans) - 1
}

func (r *recorder) end(idx int) {
	if r == nil {
		return
	}
	r.spans[idx].End = int64(time.Since(r.epoch))
}

// flowBase returns the first of this recorder's flow ids, so flows of
// different generator goroutines never share one.
func (r *recorder) flowBase() uint64 {
	if r == nil {
		return 0
	}
	return r.lane
}

// id returns the id of the span at idx (0 on a nil recorder), for use as a
// child's parent.
func (r *recorder) id(idx int) uint64 {
	if r == nil {
		return 0
	}
	return r.spans[idx].ID
}

// spanRow is one line of the per-name summary: how often the span ran, its
// total time, and its self time — total minus the part its children cover.
type spanRow struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// summarize folds spans by name. Children of one parent do not overlap here
// (each generator goroutine is sequential), so a parent's self time is its
// duration minus the sum of its children's.
func summarize(spans []span) []spanRow {
	childNS := make(map[uint64]int64, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			childNS[p] += spans[i].End - spans[i].Start
		}
	}
	byName := map[string]*spanRow{}
	for i := range spans {
		s := &spans[i]
		row := byName[s.Name]
		if row == nil {
			row = &spanRow{Name: s.Name}
			byName[s.Name] = row
		}
		d := s.End - s.Start
		row.Count++
		row.TotalMS += float64(d) / 1e6
		row.SelfMS += float64(d-childNS[s.ID]) / 1e6
	}
	rows := make([]spanRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// writeSpans writes spans as JSONL, one span per line, each tagged with the
// workload it belongs to.
func writeSpans(w io.Writer, workload string, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		line := struct {
			Workload string `json:"workload"`
			span
		}{workload, spans[i]}
		if err := enc.Encode(line); err != nil {
			return fmt.Errorf("write span: %w", err)
		}
	}
	return bw.Flush()
}
