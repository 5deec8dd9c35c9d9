package main

import (
	"fmt"
	"io"
	"math"
	"time"
)

// workloadResult is everything one run of one workload produced.
type workloadResult struct {
	name      string
	e2e       map[string]metric
	layer     map[string]metric // workload-scoped per-layer metrics
	attempted int64
	failed    int64
	failures  []string // correctness-gate failures; empty means correct
	notes     []string // flags that are not failures
	digest    string   // sim_digest (fabric only)
	routes    string   // route_digest (fabric only)
	setups    []float64
	headline  float64 // slots_per_s or setups_per_s, for the trace-overhead ratio
	spans     []span

	// Fabric only, for the slot budget.
	switches     int
	genNSPerSlot float64
}

// setupPolicy says how often set-up is repeated for setup_s: at least min
// times, then on until budget is spent or 49 are done, so a set-up of a few
// milliseconds is the median of many and one of a second is the median of few.
type setupPolicy struct {
	min    int
	budget time.Duration
}

func (p setupPolicy) more(done int, spent time.Duration) bool {
	return done < p.min || (spent < p.budget && done < 49)
}

func newResult(name string) *workloadResult {
	return &workloadResult{name: name, e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (r *workloadResult) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *workloadResult) correct() bool { return len(r.failures) == 0 }

// workloadJSON is the -out form of a workload's result.
type workloadJSON struct {
	Name      string            `json:"name"`
	Why       string            `json:"why"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	SimDigest string            `json:"sim_digest,omitempty"`
	Routes    string            `json:"route_digest,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Spans     []spanRow         `json:"spans,omitempty"`
}

// resultJSON is the whole -out file.
type resultJSON struct {
	Env       envInfo           `json:"env"`
	Seed      uint64            `json:"seed"`
	Workloads []workloadJSON    `json:"workloads"`
	Ladder    map[string]metric `json:"ladder,omitempty"`
}

func (r *workloadResult) toJSON(spec workloadSpec, rows []spanRow) workloadJSON {
	return workloadJSON{
		Name: r.name, Why: spec.Why, Correct: r.correct(),
		Attempted: r.attempted, Failed: r.failed,
		Failures: r.failures, Notes: r.notes, SimDigest: r.digest, Routes: r.routes,
		EndToEnd: r.e2e, PerLayer: r.layer, Spans: rows,
	}
}

// printMetrics writes one aligned row per metric, in the order given by
// names (metrics absent from m are skipped).
func printMetrics(w io.Writer, names []string, m map[string]metric) {
	for _, name := range names {
		v, ok := m[name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-30s %14s %-10s spread %5.1f%%  n=%d", name, formatValue(v.Value), v.Unit, 100*v.Spread, v.N)
		if len(v.Parts) > 0 && len(v.Parts) <= 2*minParts {
			fmt.Fprint(w, "  parts")
			for _, p := range v.Parts {
				fmt.Fprintf(w, " %s", formatValue(p))
			}
		}
		fmt.Fprintln(w)
	}
}

func formatValue(v float64) string {
	switch a := math.Abs(v); {
	case v == 0:
		return "0"
	case a >= 1000:
		return fmt.Sprintf("%.0f", v)
	case a >= 10:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

func e2eNames() []string {
	out := make([]string, len(e2eSpecs))
	for i, s := range e2eSpecs {
		out[i] = s.Name
	}
	return out
}

func layerNames() []string {
	out := make([]string, len(layerSpecs))
	for i, s := range layerSpecs {
		out[i] = s.Name
	}
	return out
}

// printSpanRows writes the per-name span summary of a traced pass.
func printSpanRows(w io.Writer, rows []spanRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "  %-18s %10s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-18s %10d %12.1f %12.1f\n", r.Name, r.Count, r.TotalMS, r.SelfMS)
	}
}
