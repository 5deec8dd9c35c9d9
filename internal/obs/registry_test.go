package obs

import (
	"math/bits"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsFullyDisabled(t *testing.T) {
	var r *Registry
	c := r.Counter("cells", "kind", "inject")
	g := r.Gauge("slot")
	h := r.Histogram("latency")
	s := r.Series("occupancy", "node", "3")
	if c != nil || g != nil || h != nil || s != nil {
		t.Fatalf("nil registry must hand out nil instruments, got %v %v %v %v", c, g, h, s)
	}
	// Every method on a nil handle must be a safe no-op.
	c.Add(5)
	c.Inc()
	g.Set(7)
	h.Observe(42)
	s.Record(10, 2)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if sl, v := s.Samples(); sl != nil || v != nil {
		t.Fatal("nil series must read empty")
	}
	if _, _, ok := s.Last(); ok {
		t.Fatal("nil series Last must be not-ok")
	}
	if h.Quantile(0.99) != 0 || h.Buckets() != nil {
		t.Fatal("nil histogram must read zero")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry exposition must be empty, got %q err %v", sb.String(), err)
	}
}

func TestInstrumentIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("cells", "kind", "inject", "vc", "3")
	b := r.Counter("cells", "vc", "3", "kind", "inject") // label order irrelevant
	if a != b {
		t.Fatal("same identity must return the same counter")
	}
	if c := r.Counter("cells", "kind", "deliver"); c == a {
		t.Fatal("different labels must return a different counter")
	}
	if r.Gauge("x") != r.Gauge("x") || r.Histogram("x") != r.Histogram("x") {
		t.Fatal("gauges/histograms must dedupe by identity")
	}
	if r.Series("x") != r.Series("x") {
		t.Fatal("series must dedupe by identity")
	}
}

func TestGauge(t *testing.T) {
	g := NewRegistry().Gauge("slot")
	g.Set(41)
	g.Set(42)
	if g.Value() != 42 {
		t.Fatalf("gauge = %d, want 42", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewRegistry().Histogram("lat")
	samples := []int64{0, 1, 1, 2, 3, 4, 7, 8, 100, 1 << 50}
	var sum int64
	for _, v := range samples {
		h.Observe(v)
		sum += v
	}
	if h.Count() != int64(len(samples)) {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Sum() != sum {
		t.Fatalf("Sum = %d, want %d", h.Sum(), sum)
	}
	b := h.Buckets()
	// v<=0 -> bucket 0; v=1 -> 1; 2,3 -> 2; 4..7 -> 3; 8 -> 4; 100 -> 7;
	// 1<<50 clamps into the last bucket.
	want := map[int]int64{0: 1, 1: 2, 2: 2, 3: 2, 4: 1, 7: 1, histBuckets - 1: 1}
	for k, c := range b {
		if c != want[k] {
			t.Errorf("bucket %d = %d, want %d", k, c, want[k])
		}
	}
	// Rank 5 of the sorted samples is 4, which lives in bucket 3
	// (4 <= v < 8), so the reported upper bound is 7.
	if q := h.Quantile(0.5); q != 7 {
		t.Errorf("median upper bound = %d, want 7", q)
	}
	if q := h.Quantile(0.0); q != 0 {
		t.Errorf("q0 = %d, want 0", q)
	}
}

func TestBucketOfMatchesBitsLen(t *testing.T) {
	for _, v := range []int64{-5, 0, 1, 2, 3, 4, 1023, 1024, 1 << 42} {
		want := 0
		if v > 0 {
			want = bits.Len64(uint64(v))
			if want >= histBuckets {
				want = histBuckets - 1
			}
		}
		if got := bucketOf(v); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", v, got, want)
		}
	}
}

// TestRegistryRaceHammer hammers one registry from N goroutines through
// every instrument type at once while they export it mid-flight — the
// contract the service server, its clients and a live /metrics scrape rely
// on. Run under -race (CI does).
func TestRegistryRaceHammer(t *testing.T) {
	const workers = 8
	const iters = 2000
	r := NewRegistry()
	done := make(chan struct{})
	scraped := make(chan int)
	go func() {
		// A live exporter scrapes while the writers run.
		n := 0
		for {
			select {
			case <-done:
				scraped <- n
				return
			default:
			}
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Error(err)
			}
			n++
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Constructors race with constructors and with writers.
			c := r.Counter("hammer_cells")
			h := r.Histogram("hammer_lat")
			g := r.Gauge("hammer_slot")
			s := r.Series("hammer_occ")
			for i := 0; i < iters; i++ {
				c.Inc()
				h.Observe(int64(i % 37))
				g.Set(int64(i))
				s.Record(int64(i), int64(w))
				if i%101 == 0 {
					// Readers race with writers.
					_ = c.Value()
					_ = h.Quantile(0.99)
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	if n := <-scraped; n == 0 {
		t.Fatal("the exporter never scraped")
	}
	var sum int64
	for i := 0; i < iters; i++ {
		sum += int64(i % 37)
	}
	if got := r.Counter("hammer_cells").Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	h := r.Histogram("hammer_lat")
	if got := h.Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
	if got := h.Sum(); got != workers*sum {
		t.Fatalf("histogram sum = %d, want %d", got, workers*sum)
	}
	var inBuckets int64
	for _, c := range h.Buckets() {
		inBuckets += c
	}
	if inBuckets != workers*iters {
		t.Fatalf("histogram buckets hold %d samples, want %d", inBuckets, workers*iters)
	}
	if slots, _ := r.Series("hammer_occ").Samples(); len(slots) != seriesCapacity {
		t.Fatalf("series retained %d samples, want %d", len(slots), seriesCapacity)
	}
}

// BenchmarkDisabledCounter proves the nil fast path is one predictable
// branch: no allocation, no atomic.
func BenchmarkDisabledCounter(b *testing.B) {
	var r *Registry
	c := r.Counter("x")
	h := r.Histogram("y")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(int64(i))
	}
}

// BenchmarkEnabledCounter measures the enabled hot path (one atomic add,
// every writer on the same word).
func BenchmarkEnabledCounter(b *testing.B) {
	c := NewRegistry().Counter("x")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}
