package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestWriteChromeTraceCorrelatedTimeline(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, syntheticRun(), 10); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Events []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}

	var cellSpans, outageSpans, hwInstants, detects int
	var outage chromeEvent
	for _, ev := range doc.Events {
		switch {
		case ev.Ph == "X" && ev.Name == "cell":
			cellSpans++
			if ev.Pid != chromePidData {
				t.Fatalf("cell span on pid %d", ev.Pid)
			}
		case ev.Ph == "X" && ev.Name == "outage":
			outageSpans++
			outage = ev
		case ev.Ph == "i" && ev.Cat == "hardware":
			hwInstants++
			if ev.Pid != chromePidCtrl || ev.Tid != 0 {
				t.Fatalf("hardware instant misplaced: %+v", ev)
			}
		case ev.Ph == "i" && ev.Name == "detect":
			detects++
			if ev.Tid != 1 {
				t.Fatalf("detect must ride its incident thread: %+v", ev)
			}
		}
	}
	if cellSpans != 4 { // vc1 x2, vc3 x2 (the vc4 cell became a drop-fault span)
		t.Fatalf("cell spans = %d, want 4", cellSpans)
	}
	if hwInstants != 1 || detects != 1 || outageSpans != 1 {
		t.Fatalf("control-plane rendering: hw=%d detect=%d outage=%d",
			hwInstants, detects, outageSpans)
	}
	// The repair at slot 180 with Dur 80 renders as [100, 180] slots,
	// scaled by 10us — the same window the kill instant starts.
	if outage.TS != 1000 || outage.Dur != 800 || outage.Tid != 1 || outage.Pid != chromePidCtrl {
		t.Fatalf("outage span: %+v", outage)
	}

	// Both planes share one timebase: the kill instant sits at the outage
	// span's start.
	for _, ev := range doc.Events {
		if ev.Cat == "hardware" && ev.TS != outage.TS {
			t.Fatalf("hardware instant ts %d != outage start %d", ev.TS, outage.TS)
		}
	}
}

func TestWriteChromeTraceDefaultsAndLeftovers(t *testing.T) {
	events := []Event{
		{Slot: 3, Kind: KindInject, VC: 9, Seq: 42, Link: 1},
		{Slot: 5, Kind: "mystery-kind", VC: 9},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events, 0); err != nil { // 0 -> default 10us
		t.Fatal(err)
	}
	var doc struct {
		Events []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var inflight, unknown bool
	for _, ev := range doc.Events {
		if ev.Name == "in-flight" && ev.TS == 30 {
			inflight = true
		}
		if ev.Name == "mystery-kind" {
			unknown = true
		}
	}
	if !inflight {
		t.Fatal("undelivered cell must still appear as an in-flight instant")
	}
	if !unknown {
		t.Fatal("unknown kinds must pass through, not vanish")
	}
}
