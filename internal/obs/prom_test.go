package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func populated() *Registry {
	r := NewRegistry()
	r.Counter("cells_total", "kind", "inject").Add(10)
	r.Counter("cells_total", "kind", "deliver").Add(9)
	r.Counter("aaa_first").Inc()
	r.Gauge("slot").Set(500)
	h := r.Histogram("latency_slots")
	for _, v := range []int64{1, 2, 2, 5, 9} {
		h.Observe(v)
	}
	s := r.Series("occupancy", "node", "1")
	s.Record(499, 3)
	s.Record(500, 4)
	return r
}

func TestWritePrometheusDeterministic(t *testing.T) {
	r := populated()
	var a, b strings.Builder
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("exposition must be byte-identical across calls")
	}
	out := a.String()
	for _, want := range []string{
		"# TYPE aaa_first counter",
		"aaa_first 1",
		`cells_total{kind="deliver"} 9`,
		`cells_total{kind="inject"} 10`,
		"# TYPE slot gauge",
		"slot 500",
		`occupancy{node="1"} 4`,
		"# TYPE latency_slots histogram",
		`latency_slots_bucket{le="+Inf"} 5`,
		"latency_slots_sum 19",
		"latency_slots_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Cumulative buckets: v=1 -> le="1" is 1; v<=3 covers 1,2,2 -> le="3" is 3.
	if !strings.Contains(out, `latency_slots_bucket{le="1"} 1`) ||
		!strings.Contains(out, `latency_slots_bucket{le="3"} 3`) {
		t.Errorf("histogram buckets not cumulative:\n%s", out)
	}
}

// ObserveEx attaches OpenMetrics exemplars to the buckets traced samples
// land in; untraced histograms expose byte-identically to before (the CI
// golden exposition has no exemplars).
func TestPrometheusExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("svc_op_latency_us", "op", "open")
	h.ObserveEx(3, 0xabcdef) // traced -> exemplar on le="3"
	h.ObserveEx(100, 0)      // trace 0 -> plain Observe
	h.Observe(5000)          // untraced
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := `svc_op_latency_us_bucket{op="open",le="3"} 1 # {trace_id="0000000000abcdef"} 3`
	if !strings.Contains(out, want) {
		t.Fatalf("exposition missing exemplar line %q:\n%s", want, out)
	}
	if strings.Count(out, "trace_id") != 1 {
		t.Fatalf("untraced buckets grew exemplars:\n%s", out)
	}
	if trace, v, ok := h.Exemplar(bucketOf(3)); !ok || trace != 0xabcdef || v != 3 {
		t.Fatalf("Exemplar = (%#x, %d, %v)", trace, v, ok)
	}
	if _, _, ok := h.Exemplar(bucketOf(5000)); ok {
		t.Fatal("untraced bucket has an exemplar")
	}

	// The pre-exemplar exposition shape is unchanged when no exemplars
	// were ever recorded.
	var plain strings.Builder
	if err := populated().WritePrometheus(&plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "#  {") || strings.Contains(plain.String(), "trace_id") {
		t.Fatalf("exemplar syntax leaked into untraced exposition:\n%s", plain.String())
	}
}

func TestHandlerServesMetrics(t *testing.T) {
	rec := httptest.NewRecorder()
	populated().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "slot 500") {
		t.Fatalf("body missing gauge:\n%s", rec.Body.String())
	}
}

func TestPublishExpvar(t *testing.T) {
	r := populated()
	r.PublishExpvar("obs_test_registry")
	r.PublishExpvar("obs_test_registry") // second publish is a no-op, not a panic
	var nilReg *Registry
	nilReg.PublishExpvar("obs_test_registry_nil")
}
