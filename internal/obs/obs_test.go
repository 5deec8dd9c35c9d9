package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"unicode/utf8"
)

// FuzzEventAppendJSONMatchesMarshal holds the hand-written encoder to its
// oracle, json.Marshal, byte for byte; where the kind is valid UTF-8 (so
// Marshal's encoding is lossless) the line must also read back through
// ReadJSONL as the same event.
func FuzzEventAppendJSONMatchesMarshal(f *testing.F) {
	add := func(ev Event) {
		f.Add(ev.Slot, ev.Kind, ev.VC, ev.Node, ev.Link, ev.Seq, ev.Epoch,
			ev.Incident, ev.Dur, ev.WallUS, ev.Trace, ev.Span, ev.Parent)
	}
	for i, k := range AllKinds {
		add(Event{Slot: int64(i), Kind: k, VC: uint32(i), Seq: uint64(i) * 3,
			WallUS: 1_700_000_000_000_000 + int64(i), Trace: 77, Span: uint64(i) + 1, Parent: 76})
	}
	for _, k := range []string{"", `"`, `\`, "<", ">", "&", "<>&", "a\x00b\x1f\n\t\r\b\f", "\x7f",
		"\xff\xfe", "bad\xc3(", "é ✓", "  ", "svc-op\x80"} {
		add(Event{Kind: k})
	}
	add(Event{})
	add(Event{Slot: math.MinInt64, Kind: KindHop, Node: math.MinInt32, Link: math.MinInt32,
		Incident: math.MinInt64, Dur: math.MinInt64, WallUS: math.MinInt64})
	add(Event{Slot: math.MaxInt64, Kind: KindHop, VC: math.MaxUint32, Node: math.MaxInt32,
		Link: math.MaxInt32, Seq: math.MaxUint64, Epoch: math.MaxUint64, Incident: math.MaxInt64,
		Dur: math.MaxInt64, WallUS: math.MaxInt64, Trace: math.MaxUint64, Span: math.MaxUint64,
		Parent: math.MaxUint64})
	f.Fuzz(func(t *testing.T, slot int64, kind string, vc uint32, node, link int32,
		seq, epoch uint64, incident, dur, wallUS int64, trace, span, parent uint64) {
		ev := Event{Slot: slot, Kind: kind, VC: vc, Node: node, Link: link, Seq: seq,
			Epoch: epoch, Incident: incident, Dur: dur, WallUS: wallUS,
			Trace: trace, Span: span, Parent: parent}
		want, err := json.Marshal(&ev)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("x")
		got := ev.AppendJSON(prefix)
		if !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Fatalf("AppendJSON = %s\njson.Marshal = %s", got[1:], want)
		}
		if !utf8.ValidString(kind) {
			return
		}
		back, err := ReadJSONL(bytes.NewReader(append(got[1:], '\n')))
		if err != nil || len(back) != 1 || back[0] != ev {
			t.Fatalf("ReadJSONL(%s) = %+v, %v; want %+v", got[1:], back, err, ev)
		}
	})
}
