package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/simnet"
	"repro/internal/switchnode"
	"repro/internal/topology"
)

// traceRecoveryRun replays E27's link-cut failure class with the JSONL
// tracer and hop events attached: a 3×3 torus under live traffic, one
// loaded inter-switch link cut at slot 500, all repair driven by a
// recovery.Loop. It returns the raw trace and the outage window the loop
// itself reports — the number an2trace must reproduce from the trace
// alone.
func traceRecoveryRun(t *testing.T) ([]byte, int64) {
	t.Helper()
	g, err := topology.Torus(3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.AttachHosts(g, 1, 1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	jt := simnet.NewJSONLTracer(&buf)
	n, err := simnet.New(simnet.Config{
		Topology:      g,
		Switch:        switchnode.Config{FrameSlots: 64, Discipline: switchnode.DisciplinePerVC, Seed: 42},
		IngressWindow: 32,
		Tracer:        jt,
		TraceHops:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	hostOf := make(map[topology.NodeID]topology.NodeID)
	for _, h := range g.Hosts() {
		if nb := g.Neighbors(h); len(nb) == 1 {
			hostOf[nb[0]] = h
		}
	}
	withHosts := func(sw []topology.NodeID) []topology.NodeID {
		p := []topology.NodeID{hostOf[sw[0]]}
		p = append(p, sw...)
		return append(p, hostOf[sw[len(sw)-1]])
	}
	// Six circuits; the last two cross the victim link 1–4.
	paths := [][]topology.NodeID{
		{0, 1, 2}, {0, 3, 6}, {2, 5, 8}, {6, 7, 8},
		{0, 1, 4, 5, 8}, {2, 1, 4, 3, 6},
	}
	var vcs []cell.VCI
	for i, p := range paths {
		vc := cell.VCI(i + 1)
		if _, err := n.OpenBestEffort(vc, withHosts(p)); err != nil {
			t.Fatalf("open BE %v: %v", p, err)
		}
		vcs = append(vcs, vc)
	}
	victim, ok := g.LinkBetween(1, 4)
	if !ok {
		t.Fatal("no link between switches 1 and 4")
	}
	loop, err := recovery.New(recovery.Config{
		Net:    n,
		SlotUS: 10,
		Skeptic: monitor.Config{
			FailThreshold: 3, BaseWaitUS: 400, MaxWaitUS: 8_000,
			DecayUS: 20_000, Skeptical: true,
		},
		ReconfigRadius: 2,
		RetrySlots:     32,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj := recovery.NewInjector([]recovery.FaultEvent{recovery.CutLink(500, victim.ID)})
	for s := int64(0); s < 3000; s++ {
		inj.Apply(n)
		loop.Tick()
		if slot := n.Slot(); slot < 2600 {
			for _, vc := range vcs {
				if err := n.Send(vc, [cell.PayloadSize]byte{byte(vc), byte(slot)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		n.Step()
	}
	if jt.Err() != nil {
		t.Fatal(jt.Err())
	}
	var outage int64 = -1
	for _, inc := range loop.Incidents() {
		if inc.Kind == "link-down" {
			outage = inc.OutageSlots()
		}
	}
	if outage <= 0 {
		t.Fatalf("loop never closed a link-down incident (outage = %d)", outage)
	}
	return buf.Bytes(), outage
}

// TestOutageFromTraceAlone is the acceptance criterion: the analyzer must
// reproduce the recovery loop's outage-slots figure with no access to the
// loop, only the JSONL stream.
func TestOutageFromTraceAlone(t *testing.T) {
	data, want := traceRecoveryRun(t)
	events, err := obs.ReadJSONL(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	a := obs.Analyze(events)
	if a.MaxOutageSlots != want {
		t.Fatalf("analyzer outage = %d slots, loop reports %d", a.MaxOutageSlots, want)
	}
	if !a.HasHops {
		t.Fatal("hop events missing despite TraceHops")
	}
	// The victim-crossing circuits must show outage-attributed latency.
	var outageLat float64
	for _, v := range a.VCs {
		outageLat += v.Outage
	}
	if outageLat == 0 {
		t.Fatal("no latency attributed to the outage window")
	}
	if len(a.Ports) == 0 {
		t.Fatal("no port contention recorded")
	}
}

func writeTrace(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTextReport(t *testing.T) {
	data, want := traceRecoveryRun(t)
	var out bytes.Buffer
	if err := run(&out, []string{writeTrace(t, data)}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, needle := range []string{
		"per-circuit latency breakdown",
		"recovery incidents",
		"link-down",
		"contended output ports",
	} {
		if !strings.Contains(got, needle) {
			t.Errorf("report missing %q:\n%s", needle, got)
		}
	}
	wantLine := "worst outage: " + itoa(want) + " slots"
	if !strings.Contains(got, wantLine) {
		t.Errorf("report missing %q:\n%s", wantLine, got)
	}
}

func itoa(v int64) string {
	var b []byte
	if v == 0 {
		return "0"
	}
	for ; v > 0; v /= 10 {
		b = append([]byte{byte('0' + v%10)}, b...)
	}
	return string(b)
}

func TestJSONOutput(t *testing.T) {
	data, want := traceRecoveryRun(t)
	var out bytes.Buffer
	if err := run(&out, []string{"-json", writeTrace(t, data)}); err != nil {
		t.Fatal(err)
	}
	var a obs.Analysis
	if err := json.Unmarshal(out.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if a.MaxOutageSlots != want {
		t.Fatalf("json MaxOutageSlots = %d, want %d", a.MaxOutageSlots, want)
	}
}

func TestChromeConversion(t *testing.T) {
	data, _ := traceRecoveryRun(t)
	outPath := filepath.Join(t.TempDir(), "chrome.json")
	var out bytes.Buffer
	if err := run(&out, []string{"-chrome", outPath, writeTrace(t, data)}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Events []struct {
			Ph  string `json:"ph"`
			Pid int64  `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var dataSpans, ctrlEvents int
	for _, ev := range doc.Events {
		if ev.Pid == 1 && ev.Ph == "X" {
			dataSpans++
		}
		if ev.Pid == 2 {
			ctrlEvents++
		}
	}
	if dataSpans == 0 {
		t.Fatal("no data-plane cell spans in chrome trace")
	}
	if ctrlEvents == 0 {
		t.Fatal("no control-plane events in chrome trace")
	}
}

// writeSpans writes a span stream as JSONL, the way an2sim -trace-spans
// (or a recorder dump) would.
func writeSpans(t *testing.T, name string, events []obs.Event) string {
	t.Helper()
	var buf bytes.Buffer
	sw := obs.NewSpanWriter(&buf)
	for i := range events {
		sw.Emit(&events[i])
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// mergeFixture is a miniature two-process trace with a known +5000 µs
// server clock offset: one clean op and one unanswered send for tenant 3.
func mergeFixture() (client, server []obs.Event) {
	client = []obs.Event{
		{Kind: obs.KindSvcSend, WallUS: 1000, Trace: 100, Span: 11, Parent: 10, Epoch: 3},
		{Kind: obs.KindSvcRecv, WallUS: 1270, Trace: 100, Span: 11, Parent: 10, Node: 1},
		{Kind: obs.KindSvcOp, WallUS: 1000, Dur: 270, Trace: 100, Span: 10, Epoch: 3, Seq: 1},
		{Kind: obs.KindSvcSend, WallUS: 2000, Trace: 200, Span: 21, Parent: 20, Epoch: 3},
	}
	server = []obs.Event{
		{Kind: obs.KindSvcQueue, WallUS: 6020, Dur: 30, Trace: 100, Span: 101, Parent: 11, Node: 1, Epoch: 3},
		{Kind: obs.KindSvcHandle, WallUS: 6050, Dur: 200, Trace: 100, Span: 102, Parent: 11, Node: 1, Epoch: 3},
	}
	return client, server
}

// TestMergeMode drives the -merge CLI end to end over two span files and
// checks the rendered offset and decomposition tables.
func TestMergeMode(t *testing.T) {
	client, server := mergeFixture()
	cp := writeSpans(t, "client.jsonl", client)
	sp := writeSpans(t, "server.jsonl", server)
	var out bytes.Buffer
	if err := run(&out, []string{"-merge", cp, sp}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, needle := range []string{
		"1 matched attempts", "1 unanswered sends",
		"clock offsets", "5000", "per-tenant latency decomposition",
	} {
		if !strings.Contains(got, needle) {
			t.Errorf("merge report missing %q:\n%s", needle, got)
		}
	}

	out.Reset()
	if err := run(&out, []string{"-merge", "-json", cp, sp}); err != nil {
		t.Fatal(err)
	}
	var res obs.MergeResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Offsets) != 1 || res.Offsets[0].OffsetUS != 5000 {
		t.Fatalf("json offsets = %+v, want one +5000", res.Offsets)
	}

	if err := run(&bytes.Buffer{}, []string{"-merge", cp}); err == nil {
		t.Fatal("-merge with one file accepted")
	}
}

// TestRecorderDumpReport loads a flight-recorder dump (a span-only JSONL)
// as a single file: the span listing must render, not the slot analyzer.
func TestRecorderDumpReport(t *testing.T) {
	dump := []obs.Event{
		{Kind: obs.KindSvcRefuse, WallUS: 500, Trace: 7, Span: 2, Parent: 1, Node: 2, Epoch: 4, Seq: 7},
		{Kind: obs.KindSvcHandle, WallUS: 600, Dur: 40, Trace: 8, Span: 4, Parent: 3, Node: 2, Epoch: 4, Seq: 2},
		{Kind: obs.KindSvcDump, WallUS: 700, Trace: 7, Span: 5, Parent: 1, Node: 2, Seq: 4},
	}
	path := writeSpans(t, "recorder.jsonl.refusal-rate", dump)
	var out bytes.Buffer
	if err := run(&out, []string{path}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, needle := range []string{
		"service span stream: 3 spans",
		"spans by kind",
		"stale-session", // refusal code 7 named
		"recorder dump marker: trigger=4",
	} {
		if !strings.Contains(got, needle) {
			t.Errorf("span report missing %q:\n%s", needle, got)
		}
	}
}

func TestErrors(t *testing.T) {
	if err := run(&bytes.Buffer{}, []string{filepath.Join(t.TempDir(), "missing.jsonl")}); err == nil {
		t.Fatal("missing file accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&bytes.Buffer{}, []string{empty}); err == nil {
		t.Fatal("empty trace accepted")
	}
}
