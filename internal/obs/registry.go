package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds the named instruments of one run. Create one with
// NewRegistry and share it across packages; instruments are identified by
// name plus label set, and asking twice for the same identity returns the
// same instrument (so a simnet and the recovery loop watching it can share
// counters).
//
// A nil *Registry is the disabled state: every constructor on it returns a
// nil instrument handle, and every method on a nil handle is a no-op
// guarded by a single pointer check. Instrument updates are safe under
// concurrent writers (service sessions, control loops) and concurrent readers (a
// live HTTP exporter): counters and histograms add atomically into
// their words, series take a small mutex.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	series   map[string]*Series
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		series:   make(map[string]*Series),
	}
}

// ident renders the canonical identity of name plus label pairs
// ("name" or `name{k="v",k2="v2"}`, labels sorted by key).
func ident(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotone counter: one atomic word.
type Counter struct {
	id string
	v  int64
}

// Counter returns the counter for name+labels, creating it on first use.
// Labels are alternating key, value strings. Returns nil on a nil
// registry.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	id := ident(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[id]; ok {
		return c
	}
	c := &Counter{id: id}
	r.counters[id] = c
	return c
}

// Add adds delta. No-op on a nil handle.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	atomic.AddInt64(&c.v, delta)
}

// Inc adds one. No-op on a nil handle.
func (c *Counter) Inc() { c.Add(1) }

// Value loads the count (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(&c.v)
}

// Gauge is a last-value instrument (slot number, cells in flight, ...).
type Gauge struct {
	id string
	v  int64
}

// Gauge returns the gauge for name+labels. Returns nil on a nil registry.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	id := ident(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[id]; ok {
		return g
	}
	g := &Gauge{id: id}
	r.gauges[id] = g
	return g
}

// Set stores the value. No-op on a nil handle.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	atomic.StoreInt64(&g.v, v)
}

// Value loads the value (0 on a nil handle).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return atomic.LoadInt64(&g.v)
}

// histBuckets is the fixed power-of-two bucket count: bucket k holds
// samples v with bits.Len64(v) == k, i.e. 2^(k-1) <= v < 2^k (bucket 0
// holds v <= 0). 44 buckets cover every latency a slotted simulation can
// produce without ever allocating on observe.
const histBuckets = 44

// exemplar is one concrete traced sample kept per histogram bucket, so
// a slow bucket in the exposition links to a trace id an operator can
// pull up with an2trace.
type exemplar struct {
	trace uint64
	v     int64
}

// Histogram records a distribution into fixed exponential (power-of-two)
// buckets. Unlike metrics.Histogram it never allocates on Observe and is
// safe under concurrent writers, at the price of bucketed quantiles.
// ObserveEx additionally attaches an exemplar (last traced sample) to the
// bucket, exposed in OpenMetrics exemplar syntax by WritePrometheus.
type Histogram struct {
	id        string
	count     int64
	sum       int64
	buckets   [histBuckets]int64
	exemplars [histBuckets]atomic.Pointer[exemplar]
}

// Histogram returns the histogram for name+labels. Returns nil on a nil
// registry.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	id := ident(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[id]; ok {
		return h
	}
	h := &Histogram{id: id}
	r.hists[id] = h
	return h
}

// bucketOf maps a sample to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one sample. No-op on a nil handle.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	atomic.AddInt64(&h.count, 1)
	atomic.AddInt64(&h.sum, v)
	atomic.AddInt64(&h.buckets[bucketOf(v)], 1)
}

// ObserveEx records one sample like Observe and, if trace is nonzero,
// remembers (trace, v) as the bucket's exemplar — the last traced sample
// that landed there. The exemplar store allocates, so untraced hot paths
// should call Observe; with trace == 0 this is exactly Observe. No-op on
// a nil handle.
func (h *Histogram) ObserveEx(v int64, trace uint64) {
	if h == nil {
		return
	}
	h.Observe(v)
	if trace != 0 {
		h.exemplars[bucketOf(v)].Store(&exemplar{trace: trace, v: v})
	}
}

// Exemplar returns the bucket's exemplar trace id and value, or ok=false
// when none was recorded (or on a nil handle / out-of-range bucket).
func (h *Histogram) Exemplar(bucket int) (trace uint64, v int64, ok bool) {
	if h == nil || bucket < 0 || bucket >= histBuckets {
		return 0, 0, false
	}
	e := h.exemplars[bucket].Load()
	if e == nil {
		return 0, 0, false
	}
	return e.trace, e.v, true
}

// Count loads the sample count (0 on a nil handle).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return atomic.LoadInt64(&h.count)
}

// Sum loads the sum of the samples (0 on a nil handle).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return atomic.LoadInt64(&h.sum)
}

// Buckets returns a copy of the bucket counts, index k covering
// 2^(k-1) <= v < 2^k (index 0: v <= 0). Nil on a nil handle.
func (h *Histogram) Buckets() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, histBuckets)
	for k := range out {
		out[k] = atomic.LoadInt64(&h.buckets[k])
	}
	return out
}

// Quantile returns an upper bound for the q-quantile (the upper edge of
// the bucket the rank falls in), or 0 with no samples or a nil handle.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for k, c := range h.Buckets() {
		seen += c
		if seen > rank {
			if k == 0 {
				return 0
			}
			return int64(1)<<uint(k) - 1
		}
	}
	return 0
}
