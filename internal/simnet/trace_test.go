package simnet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/obs"
	"repro/internal/switchnode"
)

func TestCollectTracerRecordsLifecycle(t *testing.T) {
	tr := &CollectTracer{}
	n, _, _, path := lineNet(t, 2, 1, Config{
		Switch: switchnode.Config{FrameSlots: 16},
		Tracer: tr,
	})
	if _, err := n.OpenBestEffort(5, path); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		if err := n.Send(5, [48]byte{}); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(100)
	if err := n.CloseCircuit(5); err != nil {
		t.Fatal(err)
	}
	if tr.Count(obs.KindOpen) != 1 || tr.Count(obs.KindClose) != 1 {
		t.Fatalf("open=%d close=%d", tr.Count(obs.KindOpen), tr.Count(obs.KindClose))
	}
	if tr.Count(obs.KindInject) != 10 || tr.Count(obs.KindDeliver) != 10 {
		t.Fatalf("inject=%d deliver=%d", tr.Count(obs.KindInject), tr.Count(obs.KindDeliver))
	}
	if tr.Count(obs.KindDropFault) != 0 {
		t.Fatal("phantom drops")
	}
	// Events carry monotone slots.
	last := int64(-1)
	for _, ev := range tr.Events {
		if ev.Slot < last {
			t.Fatalf("slots not monotone: %d after %d", ev.Slot, last)
		}
		last = ev.Slot
	}
}

func TestTraceFaultEvents(t *testing.T) {
	tr := &CollectTracer{}
	n, _, _, path := lineNet(t, 2, 10, Config{
		Switch: switchnode.Config{FrameSlots: 16},
		Tracer: tr,
	})
	if _, err := n.OpenBestEffort(1, path); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		if err := n.Send(1, [48]byte{}); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(15)
	link, _ := n.cfg.Topology.LinkBetween(path[1], path[2])
	n.KillLink(link.ID)
	n.RestoreLink(link.ID)
	if tr.Count(obs.KindKillLink) != 1 || tr.Count(obs.KindRestoreLink) != 1 {
		t.Fatal("kill/restore not traced")
	}
	if tr.Count(obs.KindDropFault) == 0 {
		t.Fatal("in-flight drop not traced")
	}
}

func TestJSONLTracer(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	n, _, _, path := lineNet(t, 2, 1, Config{
		Switch: switchnode.Config{FrameSlots: 16},
		Tracer: tr,
	})
	if _, err := n.OpenBestEffort(2, path); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		if err := n.Send(2, [48]byte{}); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(60)
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}
	if tr.Events() < 11 { // open + 5 injects + 5 delivers
		t.Fatalf("only %d events", tr.Events())
	}
	// Every line is valid JSON with the expected fields.
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if ev.Kind == "" {
			t.Fatalf("line %d has no kind", lines)
		}
		lines++
	}
	if int64(lines) != tr.Events() {
		t.Fatalf("lines %d != events %d", lines, tr.Events())
	}
}

// TestTraceKindsRoundTrip encodes one event of every kind through the
// JSONL tracer, decodes with obs.ReadJSONL, and re-encodes: both the
// decoded events and the second encoding must be identical to the first —
// the property the offline analyzers and the CI fixture trace depend on.
func TestTraceKindsRoundTrip(t *testing.T) {
	if len(obs.AllKinds) == 0 {
		t.Fatal("obs.AllKinds is empty")
	}
	var first bytes.Buffer
	jt := NewJSONLTracer(&first)
	var want []obs.Event
	for i, kind := range obs.AllKinds {
		ev := obs.Event{
			Slot:     int64(100 + i),
			Kind:     kind,
			VC:       uint32(i),
			Node:     int32(i) - 1, // exercise the -1 sentinel too
			Link:     int32(2 * i),
			Seq:      uint64(1000 + i),
			Epoch:    uint64(i % 3),
			Incident: int64(i % 2),
			Dur:      int64(10 * i),
			WallUS:   int64(1_000_000 * i),
			Trace:    uint64(i),
			Span:     uint64(i * 2),
			Parent:   uint64(i / 2),
		}
		jt.Trace(ev)
		want = append(want, ev)
	}
	if jt.Err() != nil {
		t.Fatal(jt.Err())
	}
	if jt.Events() != int64(len(obs.AllKinds)) {
		t.Fatalf("tracer wrote %d events, want %d", jt.Events(), len(obs.AllKinds))
	}

	got, err := obs.ReadJSONL(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("event %d (%s): decoded %+v, want %+v", i, want[i].Kind, got[i], want[i])
		}
	}

	var second bytes.Buffer
	re := NewJSONLTracer(&second)
	for _, ev := range got {
		re.Trace(ev)
	}
	if re.Err() != nil {
		t.Fatal(re.Err())
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-encoding differs:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
	}
}

// TestTraceOmitEmpty pins the wire layout: zero-valued correlation fields
// must vanish from the JSON so plain data-plane events stay as compact as
// they were before the span model grew Epoch/Incident/Dur (and, with the
// service plane, WallUS/Trace/Span/Parent) — old fixture traces must
// re-encode byte-identically.
func TestTraceOmitEmpty(t *testing.T) {
	var buf bytes.Buffer
	jt := NewJSONLTracer(&buf)
	jt.Trace(obs.Event{Slot: 7, Kind: obs.KindInject, VC: 3, Node: 1, Link: 2, Seq: 9})
	line := buf.String()
	for _, forbidden := range []string{"epoch", "incident", "dur", "wall_us", "trace", "span", "parent"} {
		if bytes.Contains([]byte(line), []byte(forbidden)) {
			t.Errorf("zero %s field serialized: %s", forbidden, line)
		}
	}
}

// TestJSONLTracerStickyError verifies a failed write poisons the tracer
// instead of silently miscounting later events.
func TestJSONLTracerStickyError(t *testing.T) {
	jt := NewJSONLTracer(failWriter{})
	jt.Trace(obs.Event{Kind: obs.KindInject})
	if jt.Err() == nil {
		t.Fatal("write error not recorded")
	}
	jt.Trace(obs.Event{Kind: obs.KindDeliver})
	if jt.Events() != 0 {
		t.Fatalf("events counted despite error: %d", jt.Events())
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("short write") }

func TestLinkUtilization(t *testing.T) {
	n, _, _, path := lineNet(t, 2, 1, Config{Switch: switchnode.Config{FrameSlots: 16}})
	if util := n.LinkUtilization(); len(util) != 0 {
		t.Fatal("utilization before any slot")
	}
	if _, err := n.OpenBestEffort(1, path); err != nil {
		t.Fatal(err)
	}
	const cells = 200
	for k := 0; k < cells; k++ {
		if err := n.Send(1, [48]byte{}); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(400)
	util := n.LinkUtilization()
	// Every link on the 3-link path carried all 200 cells: 200/400 = 0.5.
	links := 0
	for _, u := range util {
		if u < 0.45 || u > 0.55 {
			t.Fatalf("utilization %v", util)
		}
		links++
	}
	if links != 3 {
		t.Fatalf("%d links used, want 3", links)
	}
}
