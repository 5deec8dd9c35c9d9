package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkFileMatchesSpec pins BENCHMARK.json to the tables in spec.go:
// the same workloads, the same published end-to-end metrics and bounds, the
// same per-layer metrics.
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	b := readBenchmarkFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(b.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(b.Workloads), len(workloadSpecs))
	}
	for i, w := range workloadSpecs {
		if got := b.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go has %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(contractSpecs) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in spec.go", len(b.EndToEnd), len(contractSpecs))
	}
	seen := map[string]bool{}
	for i, c := range contractSpecs {
		got := b.EndToEnd[i]
		if got.Name != c.Name || got.Unit != c.Unit || got.Better != c.Better || got.Bound != c.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, spec.go has %+v", i, got, c)
		}
		if c.Bound <= 0 || c.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", c.Name, c.Bound)
		}
		seen[c.Name] = true
	}
	if len(b.PerLayer) != len(layerSpecs) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in spec.go", len(b.PerLayer), len(layerSpecs))
	}
	for i, l := range layerSpecs {
		got := b.PerLayer[i]
		if got.Name != l.Name || got.Unit != l.Unit || got.Better != l.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, spec.go has %s %s %s", i, got, l.Name, l.Unit, l.Better)
		}
		if seen[l.Name] {
			t.Errorf("name %s is used twice", l.Name)
		}
		seen[l.Name] = true
		if !nameRE.MatchString(l.Name) || !unitRE.MatchString(l.Unit) {
			t.Errorf("per_layer %s (%s): name or unit outside the allowed characters", l.Name, l.Unit)
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
}

// TestQuickRun runs every workload at -quick sizing, both passes, the ladder
// and the budgets, and checks that every metric and workload BENCHMARK.json
// names is emitted under an allowed name with consistent counts.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sockets and five workloads")
	}
	dir := t.TempDir()
	out, trace := filepath.Join(dir, "result.json"), filepath.Join(dir, "spans.jsonl")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-quick", "-out", out, "-trace-out", trace}, &stdout, &stderr)
	if code != 0 {
		// A test machine running other packages' tests can stall a session
		// long enough to fail a flow outright. One retry tells weather from
		// breakage.
		t.Logf("first attempt exited %d, retrying once\n%s", code, stderr.String())
		stdout.Reset()
		stderr.Reset()
		code = run([]string{"-quick", "-out", out, "-trace-out", trace}, &stdout, &stderr)
	}
	if code != 0 {
		t.Fatalf("bench -quick exited %d\n%s\n%s", code, stderr.String(), stdout.String())
	}
	res, err := readResult(out)
	if err != nil {
		t.Fatal(err)
	}
	b := readBenchmarkFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	byName := map[string]workloadJSON{}
	for _, w := range res.Workloads {
		byName[w.Name] = w
	}
	for _, bw := range b.Workloads {
		w, ok := byName[bw.Name]
		if !ok {
			t.Errorf("workload %s not in the result", bw.Name)
			continue
		}
		spec, _ := findWorkload(bw.Name)
		if !w.Correct || w.Failed > w.Attempted || w.Attempted < 1 {
			t.Errorf("%s: correct %v, attempted %d, failed %d, failures %v", w.Name, w.Correct, w.Attempted, w.Failed, w.Failures)
		}
		for _, c := range contractSpecs {
			m, ok := w.EndToEnd[c.source(spec)]
			if !ok || m.Value <= 0 || math.IsNaN(m.Value) {
				t.Errorf("%s: published metric %s (from %s) = %+v, want a positive value", w.Name, c.Name, c.source(spec), m)
			}
		}
		for _, e := range e2eSpecs {
			if _, ok := w.EndToEnd[e.Name]; ok != scopeCovers(e.On, spec) {
				t.Errorf("%s: end-to-end metric %s present=%v, scope %q", w.Name, e.Name, ok, e.On)
			}
		}
		for _, l := range b.PerLayer {
			ls := layerSpecs[0]
			for _, cand := range layerSpecs {
				if cand.Name == l.Name {
					ls = cand
				}
			}
			_, inLadder := res.Ladder[l.Name]
			_, inWorkload := w.PerLayer[l.Name]
			switch {
			case ls.On == onLadder && !inLadder:
				t.Errorf("ladder metric %s not emitted", l.Name)
			case ls.On != onLadder && scopeCovers(ls.On, spec) && !inWorkload:
				t.Errorf("%s: per-layer metric %s not emitted", w.Name, l.Name)
			}
		}
		for name := range w.EndToEnd {
			if !nameRE.MatchString(name) {
				t.Errorf("%s: metric name %q", w.Name, name)
			}
		}
		for name := range w.PerLayer {
			if !nameRE.MatchString(name) {
				t.Errorf("%s: metric name %q", w.Name, name)
			}
		}
		if spec.Fabric && (w.SimDigest == "" || w.Routes == "") {
			t.Errorf("%s: no sim_digest or route_digest", w.Name)
		}
		if len(w.Spans) == 0 {
			t.Errorf("%s: traced pass recorded no spans", w.Name)
		}
	}
	for _, table := range []string{"fabric_dense: slot budget", "fabric_sparse: slot budget", "svc_churn: flow budget"} {
		if !strings.Contains(stdout.String(), table) {
			t.Errorf("output has no %q table", table)
		}
	}
	if st, err := os.Stat(trace); err != nil || st.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
}

// TestDriverLine checks the driver's form: the last line is one JSON object
// with exactly the contract's keys and metrics, for both values of -trace.
func TestDriverLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload and the ladder")
	}
	for trace, want := range map[string]int{"0": len(contractSpecs), "1": len(layerSpecs)} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "fabric_dense", "--seed", "3", "--seconds", "10", "--trace", trace, "-quick"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s\n%s", trace, code, stderr.String(), stdout.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v\n%s", trace, err, lines[len(lines)-1])
		}
		if len(got) != 4 {
			t.Errorf("trace %s: keys %v, want exactly correct, attempted, failed, metrics", trace, got)
		}
		var metrics map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != want {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(metrics), want)
		}
		for name, m := range metrics {
			if m.Value == nil || m.Unit == "" {
				t.Errorf("trace %s: metric %s = %+v", trace, name, m)
			}
		}
	}
}

func TestRefusesMoreGeneratorsThanCPUs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-generators", "100000", "-quick"}, &stdout, &stderr); code == 0 {
		t.Fatal("bench accepted 100000 generator goroutines")
	}
	if !strings.Contains(stderr.String(), "generator goroutines") {
		t.Errorf("refusal does not say why: %q", stderr.String())
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0, 1}, {1, 10}, {0.01, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	// 1000 samples: p99 leaves exactly ten beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestMedianOfParts(t *testing.T) {
	m := medianOfParts([]float64{10, 30, 20, 50, 40}, "us", 7)
	if m.Value != 30 || m.Unit != "us" || m.N != 7 {
		t.Errorf("median of parts = %+v", m)
	}
	if want := (50.0 - 10.0) / 30.0; math.Abs(m.Spread-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", m.Spread, want)
	}
	if m := medianOfParts([]float64{1, 2, 3, 4}, "s", 4); m.Value != 2.5 {
		t.Errorf("even median = %v", m.Value)
	}
	if m := medianOfParts(nil, "s", 0); m.Value != 0 || m.Spread != 0 {
		t.Errorf("empty = %+v", m)
	}
}

func TestQuietParts(t *testing.T) {
	// Twenty parts: the quiet tenth is the two fastest, fastest first.
	perS := make([]float64, 20)
	for i := range perS {
		perS[i] = float64(100 + i)
	}
	perS[3], perS[11] = 500, 400
	if got := quietParts(perS); len(got) != 2 || got[0] != 3 || got[1] != 11 {
		t.Errorf("quiet parts = %v, want [3 11]", got)
	}
	// Five parts (the quick sizing): one quiet part, never none.
	if got := quietParts([]float64{5, 9, 7, 1, 3}); len(got) != 1 || got[0] != 1 {
		t.Errorf("quiet parts of five = %v, want [1]", got)
	}
	if got := quietParts(nil); len(got) != 0 {
		t.Errorf("quiet parts of nothing = %v", got)
	}
}

func TestWindowMetric(t *testing.T) {
	parts := []float64{10, 30, 20, 50, 40} // quartiles 20 and 40, median 30
	m := windowMetric(12, parts, "us", 7)
	if m.Value != 12 || m.Unit != "us" || m.N != 7 || len(m.Parts) != 5 {
		t.Errorf("window metric = %+v", m)
	}
	if want := (40.0 - 20.0) / 30.0; math.Abs(m.Spread-want) > 1e-12 {
		t.Errorf("spread = %v, want the interquartile range over the median, %v", m.Spread, want)
	}
	if m := windowMetric(0, nil, "s", 0); m.Value != 0 || m.Spread != 0 {
		t.Errorf("empty = %+v", m)
	}
	// Eleven repetitions: the quiet tenth from the fast end is the second
	// fastest, and one slow repetition does not move it.
	reps := []float64{5, 3, 9, 1, 7, 2, 8, 4, 6, 10, 5000}
	if m := quietOfReps(reps, "s", 11); m.Value != 2 || m.N != 11 {
		t.Errorf("quiet of reps = %+v, want 2", m)
	}
	if m := quietOfReps([]float64{1, 2, 3}, "s", 3); math.Abs(m.Value-1.2) > 1e-12 {
		t.Errorf("quiet of three reps = %v, want 1.2 (interpolated)", m.Value)
	}
}

func TestParts(t *testing.T) {
	for _, c := range []struct {
		seconds float64
		want    int
	}{{0.5, minParts}, {3, 15}, {20, maxParts}, {60, maxParts}} {
		if got := partCount(c.seconds); got != c.want {
			t.Errorf("partCount(%v) = %d, want %d", c.seconds, got, c.want)
		}
	}
	b := partBounds(23, 5)
	if len(b) != 6 || b[0] != 0 || b[5] != 23 {
		t.Errorf("part bounds %v do not cover 23 items in 5 parts", b)
	}
	for i := 0; i+1 < len(b); i++ {
		if n := b[i+1] - b[i]; n < 4 || n > 5 {
			t.Errorf("part %d has %d of 23 items", i, n)
		}
	}
}

func TestSeedsGiveUnrelatedStreams(t *testing.T) {
	a, b := newStream(1, streamTraffic), newStream(2, streamTraffic)
	var as, bs [64]uint64
	for i := range as {
		as[i], bs[i] = a.next(), b.next()
	}
	for shift := 0; shift < 8; shift++ {
		for i := 0; i+shift < len(as); i++ {
			if as[i+shift] == bs[i] || bs[i+shift] == as[i] {
				t.Fatalf("seeds 1 and 2 share values at shift %d", shift)
			}
		}
	}
	c := newStream(1, streamTraffic)
	if c.next() != as[0] {
		t.Error("one seed gave two sequences")
	}
}

func TestVerdict(t *testing.T) {
	spec := func(name string) e2eSpec {
		for _, s := range e2eSpecs {
			if s.Name == name {
				return s
			}
		}
		t.Fatalf("no e2e spec %s", name)
		return e2eSpec{}
	}
	m := func(v, spread float64) metric { return metric{Value: v, Spread: spread} }
	cases := []struct {
		name      string
		base, cur metric
		want      string
	}{
		{"setups_per_s", m(20000, 0.03), m(19000, 0.03), verdictOK},         // -5%, bound 7%
		{"setups_per_s", m(20000, 0.03), m(18000, 0.03), verdictWorse},      // -10%
		{"setups_per_s", m(20000, 0.03), m(30000, 0.03), verdictOK},         // better is never worse
		{"setups_per_s", m(20000, 0.03), m(19500, 0.20), verdictUnresolved}, // spread wider than the bound
		{"setup_p50_us", m(30, 0.02), m(34.4, 0.02), verdictOK},             // +14.7%, bound 15%
		{"setup_p50_us", m(30, 0.02), m(35, 0.02), verdictWorse},            // lower is better
		{"setup_s", m(0.0015, 0.5), m(0.030, 0.5), verdictOK},               // inside the 50 ms slack
		{"setup_s", m(0.40, 0.1), m(0.55, 0.1), verdictWorse},               // +37%, over 20% + 50 ms
		{"failed_frac", m(0, 0), m(0, 0), verdictOK},
		{"failed_frac", m(0, 0), m(0.0001, 0), verdictWorse}, // bound 0: any increase
		{"traffic_delivered_frac", m(0.001, 0), m(0, 0), verdictOK},
		{"traffic_delivered_frac", m(0.50, 0), m(0.40, 0), verdictWorse},
	}
	for _, c := range cases {
		if got, _ := verdict(spec(c.name), c.base, c.cur); got != c.want {
			t.Errorf("%s %v -> %v: verdict %s, want %s", c.name, c.base.Value, c.cur.Value, got, c.want)
		}
	}
}

func TestCompareExitCode(t *testing.T) {
	mk := func(perS float64) *resultJSON {
		return &resultJSON{Seed: 1, Workloads: []workloadJSON{{
			Name:     "svc_churn",
			EndToEnd: map[string]metric{"setups_per_s": {Value: perS, Unit: "1/s", Spread: 0.02}},
		}}}
	}
	var out bytes.Buffer
	if code := compareResults(mk(20000), mk(19800), &out); code != 0 {
		t.Errorf("a 1%% move exited %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareResults(mk(20000), mk(15000), &out); code == 0 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a 25%% loss exited %d\n%s", code, out.String())
	}
}

func TestSummarizeSelfTime(t *testing.T) {
	spans := []span{
		{Name: "flow", ID: 1, Start: 0, End: 100e6},
		{Name: "client.open", ID: 2, Parent: 1, Start: 0, End: 60e6},
		{Name: "client.close", ID: 3, Parent: 1, Start: 60e6, End: 90e6},
	}
	rows := summarize(spans)
	got := map[string]spanRow{}
	for _, r := range rows {
		got[r.Name] = r
	}
	if f := got["flow"]; f.TotalMS != 100 || f.SelfMS != 10 || f.Count != 1 {
		t.Errorf("flow row = %+v, want total 100 ms, self 10 ms", f)
	}
	if o := got["client.open"]; o.SelfMS != 60 {
		t.Errorf("client.open self = %v, want 60", o.SelfMS)
	}
}
