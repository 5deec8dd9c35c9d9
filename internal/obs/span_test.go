package obs

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestSpanWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSpanWriter(&buf)
	in := []Event{
		{Kind: KindSvcSend, WallUS: 100, Trace: 7, Span: 8, Parent: 1, Epoch: 3, Seq: 0},
		{Kind: KindSvcRecv, WallUS: 250, Trace: 7, Span: 8, Parent: 1, Node: 2},
		{Kind: KindSvcOp, WallUS: 100, Dur: 150, Trace: 7, Span: 1, Epoch: 3, Seq: 1},
	}
	for i := range in {
		sw.Emit(&in[i])
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d events, wrote %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("event %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestSpanWriterNilIsNoOp(t *testing.T) {
	var sw *SpanWriter
	sw.Emit(&Event{Kind: KindSvcSend})
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestSpanWriterConcurrentEmitters(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSpanWriter(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sw.Emit(&Event{Kind: KindSvcSend, Trace: uint64(g)<<32 | uint64(i), Span: 1})
			}
		}(g)
	}
	wg.Wait()
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("interleaved lines corrupted: %v", err)
	}
	if len(evs) != 8*200 {
		t.Fatalf("got %d events, want %d", len(evs), 8*200)
	}
}

func TestRingWrapsAndSnapshotsOldestFirst(t *testing.T) {
	r := NewRing(4)
	if r.Len() != 0 || r.Snapshot() != nil {
		t.Fatal("empty ring should be empty")
	}
	for i := 1; i <= 10; i++ {
		r.Put(Event{Kind: KindSvcSend, Seq: uint64(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot %d spans, want 4", len(snap))
	}
	for i, ev := range snap {
		if want := uint64(7 + i); ev.Seq != want {
			t.Fatalf("snapshot[%d].Seq = %d, want %d (oldest first)", i, ev.Seq, want)
		}
	}
}

func TestRingNilIsNoOp(t *testing.T) {
	var r *Ring
	r.Put(Event{Kind: KindSvcSend})
	if r.Len() != 0 || r.Snapshot() != nil {
		t.Fatal("nil ring should stay empty")
	}
	if n, err := r.DumpFile(filepath.Join(t.TempDir(), "x.jsonl")); n != 0 || err != nil {
		t.Fatalf("nil DumpFile = (%d, %v)", n, err)
	}
}

func TestRingDumpFileDecodes(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 5; i++ {
		r.Put(Event{Kind: KindSvcRefuse, Trace: uint64(i + 1), Span: 9, Parent: 2, WallUS: int64(1000 * i), Seq: 8})
	}
	path := filepath.Join(t.TempDir(), "dump.jsonl")
	n, err := r.DumpFile(path)
	if err != nil || n != 5 {
		t.Fatalf("DumpFile = (%d, %v)", n, err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 5 || evs[4].Trace != 5 || evs[0].Kind != KindSvcRefuse {
		t.Fatalf("dump decoded to %+v", evs)
	}
}

// Writers race a reader: every span a snapshot holds must be whole (its
// fields agree with each other), and each writer's spans must appear in
// the order it put them.
func TestRingConcurrentWriters(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	check := func(snap []Event) {
		last := map[uint64]uint64{}
		for _, ev := range snap {
			if ev.Span != ev.Trace<<32|ev.Seq || ev.WallUS != int64(ev.Seq)*3 || ev.Kind != KindSvcHandle {
				t.Errorf("torn span %+v", ev)
				return
			}
			if n, ok := last[ev.Trace]; ok && ev.Seq <= n {
				t.Errorf("writer %d: span %d after %d", ev.Trace, ev.Seq, n)
				return
			}
			last[ev.Trace] = ev.Seq
		}
	}
	for g := uint64(0); g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < 1000; i++ {
				r.Put(Event{Kind: KindSvcHandle, Trace: g, Seq: i, Span: g<<32 | i, WallUS: int64(i) * 3})
				if i%100 == 0 {
					check(r.Snapshot())
				}
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if len(snap) != 64 {
		t.Fatalf("final snapshot %d spans, want 64", len(snap))
	}
	check(snap)
}

// The encoder and the recorder cost nothing per span once warm, and a
// new ring costs no more than the pointer array it replaced: tracing adds
// no set-up work and no allocation to the request path.
func TestTracingAllocatesNothing(t *testing.T) {
	ev := Event{Kind: KindSvcHandle, WallUS: 1_700_000_000_000_000, Dur: 12,
		Trace: 77, Span: 78, Parent: 76, Node: 3, Epoch: 1, Seq: 4}
	sw := NewSpanWriter(io.Discard)
	if a := testing.AllocsPerRun(1000, func() { sw.Emit(&ev) }); a != 0 {
		t.Errorf("SpanWriter.Emit = %.2f allocs, want 0", a)
	}
	r := NewRing(1024)
	for i := 0; i < 1024; i++ {
		r.Put(ev)
	}
	if cap(r.slots) != 1024 {
		t.Errorf("full ring of 1024 has %d slots", cap(r.slots))
	}
	if a := testing.AllocsPerRun(1000, func() { r.Put(ev) }); a != 0 {
		t.Errorf("Ring.Put on a full ring = %.2f allocs, want 0", a)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 100
	rings := make([]*Ring, n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range rings {
		rings[i] = NewRing(1024)
	}
	runtime.ReadMemStats(&m1)
	if b, limit := (m1.TotalAlloc-m0.TotalAlloc)/n, 8<<10+uint64(unsafe.Sizeof(Ring{})); b > limit {
		t.Errorf("NewRing(1024) allocates %d bytes, want <= %d", b, limit)
	}
}

// New trace fields must stay invisible when unset: the CI golden traces
// predate them, and their JSON must re-encode without any new keys.
func TestTraceFieldsOmitEmpty(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSpanWriter(&buf)
	sw.Emit(&Event{Slot: 3, Kind: KindDeliver, VC: 1, Node: 2})
	sw.Flush()
	line := buf.String()
	for _, key := range []string{"wall_us", "trace", "span", "parent"} {
		if strings.Contains(line, key) {
			t.Fatalf("unset field %q leaked into %s", key, line)
		}
	}
}

// A span file from a SIGKILLed process ends mid-line; the readable
// prefix must survive. A malformed line mid-file is still an error —
// that's corruption, not a crash cut.
func TestReadJSONLTruncatedTail(t *testing.T) {
	good := `{"kind":"svc-send","wall_us":100,"trace":7,"span":8}` + "\n"
	evs, err := ReadJSONL(strings.NewReader(good + good + `{"kind":"svc-re`))
	if err != nil {
		t.Fatalf("truncated final line must be dropped, got error: %v", err)
	}
	if len(evs) != 2 {
		t.Fatalf("got %d events before the cut, want 2", len(evs))
	}
	if _, err := ReadJSONL(strings.NewReader(good + "{broken}\n" + good)); err == nil {
		t.Fatal("malformed mid-file line must still error")
	}
}
