// Command bench is this repository's benchmark: five named workloads run
// against the code as it stands, every metric printed by name with its unit,
// outputs checked, and — in a separate traced pass — the calls into each
// layer's public functions timed from the outside. See README.md.
//
//	go run ./bench                                  all workloads, traced passes, ladder, budgets
//	go run ./bench -workloads svc_churn -no-trace   one workload's end-to-end numbers
//	go run ./bench -compare a.json b.json           verdicts between two -out files (or comma-separated sets)
//	go run ./bench --workload W --seed N --seconds S --trace 0|1   the driver's form (BENCHMARK.json runs it through run.sh)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// envInfo records where the numbers were taken.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Network    string `json:"network"`
}

func environment() envInfo {
	env := envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
		Network: "loopback (127.0.0.1; no real link is crossed)",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// options is the parsed command line.
type options struct {
	workloads  []workloadSpec
	driver     bool // single -workload: end with the driver's one-line JSON result
	trace      int  // driver form: 0 = end-to-end metrics, 1 = per-layer metrics
	seed       uint64
	seconds    float64
	quick      bool
	noTrace    bool
	out        string
	traceOut   string
	generators int
	procs      int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "run this one workload and end with the driver's one-line JSON result")
		workloads = fs.String("workloads", "", "comma-separated workloads to run (default: all five)")
		seed      = fs.Uint64("seed", 42, "seeds the load generator only")
		seconds   = fs.Float64("seconds", 20, "length of each timed window; fabric workloads run a fixed 30000 (dense) or 45000 (sparse) slots per second of it")
		trace     = fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		quick     = fs.Bool("quick", false, "smoke sizing: 2000 fabric slots on a radix-8 fat-tree and the torus, 0.5 s service windows")
		noTrace   = fs.Bool("no-trace", false, "skip the traced passes, the ladder and the budgets")
		out       = fs.String("out", "", "write the full result as JSON to this file")
		traceOut  = fs.String("trace-out", "", "write the traced passes' spans as JSONL to this file")
		compare   = fs.Bool("compare", false, "compare two -out files, or two comma-separated sets of them: bench -compare base.json new.json")
		gens      = fs.Int("generators", 0, "generator goroutines (service sessions); default min(2, nproc)")
		procs     = fs.Int("procs", 1, "GOMAXPROCS for the whole run; 0 leaves the runtime's default")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files: bench -compare base.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	o := options{
		seed: *seed, seconds: *seconds, quick: *quick, noTrace: *noTrace,
		out: *out, traceOut: *traceOut, trace: *trace, generators: *gens, procs: *procs,
	}
	nproc := runtime.NumCPU()
	if o.generators == 0 {
		o.generators = min(2, nproc)
	}
	if o.generators < 1 || o.generators > nproc {
		fmt.Fprintf(stderr, "bench: %d generator goroutines asked for, but this machine has %d CPUs: load is generated from this one process with at most nproc goroutines\n", o.generators, nproc)
		return 2
	}
	if o.procs < 0 || o.procs > nproc {
		fmt.Fprintf(stderr, "bench: -procs %d, but this machine has %d CPUs\n", o.procs, nproc)
		return 2
	}
	if o.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(o.procs))
	}
	if o.seconds <= 0 || o.seconds > 120 {
		fmt.Fprintf(stderr, "bench: -seconds %v out of range (0, 120]\n", o.seconds)
		return 2
	}
	names := *workloads
	if *workload != "" {
		if names != "" {
			fmt.Fprintln(stderr, "bench: -workload and -workloads are exclusive")
			return 2
		}
		if o.trace != 0 && o.trace != 1 {
			fmt.Fprintf(stderr, "bench: -trace %d: want 0 or 1\n", o.trace)
			return 2
		}
		if o.trace == 1 && o.noTrace {
			fmt.Fprintln(stderr, "bench: -trace 1 and -no-trace are exclusive")
			return 2
		}
		o.driver, names = true, *workload
	}
	if names == "" {
		o.workloads = workloadSpecs
	} else {
		for _, n := range strings.Split(names, ",") {
			w, ok := findWorkload(strings.TrimSpace(n))
			if !ok {
				fmt.Fprintf(stderr, "bench: unknown workload %q\n", n)
				return 2
			}
			o.workloads = append(o.workloads, w)
		}
	}
	if err := execute(o, stdout); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// sizes derives every run length from the options.
type sizes struct {
	fabricSeconds float64 // multiplied by the plan's slots per second
	fabricSlots   int64   // fixed slot count (quick), overriding fabricSeconds
	warmupSlots   int64
	preludeSlots  int64
	window        time.Duration
	warmup        time.Duration
	parts         int           // parts a timed window is cut into
	limit         time.Duration // a fabric window that outlasts this stops early (0 = never)
	ladderScale   float64
	setup         setupPolicy
}

func (o options) sizes() sizes {
	if o.quick {
		return sizes{
			fabricSlots: 2000, warmupSlots: 500, preludeSlots: 200,
			window: 500 * time.Millisecond, warmup: 50 * time.Millisecond,
			parts: minParts, ladderScale: 0, setup: setupPolicy{min: 1},
		}
	}
	window := time.Duration(o.seconds * float64(time.Second))
	warmup := window / 10
	warmup = max(min(warmup, 2*time.Second), 250*time.Millisecond)
	return sizes{
		fabricSeconds: o.seconds, warmupSlots: 5000, preludeSlots: 2000,
		window: window, warmup: warmup,
		parts: partCount(o.seconds), limit: window * 5 / 4,
		ladderScale: 1, setup: setupPolicy{min: 3, budget: time.Second},
	}
}

// quarterCap is the longest a traced pass's window may be, so that a run
// with several of them (spans off, spans on, one session) stays short.
const quarterCap = 3 * time.Second

// quarter returns the sizing of a traced pass: the same workload at one
// quarter length (at most quarterCap), set up once, without the determinism
// prelude.
func (s sizes) quarter() sizes {
	s.fabricSeconds = min(s.fabricSeconds/4, quarterCap.Seconds())
	s.fabricSlots /= 4
	s.window = min(s.window/4, quarterCap)
	s.limit = min(s.limit/4, quarterCap*5/4)
	if s.fabricSlots == 0 { // not the quick sizing, whose parts and warm-up are minimal already
		s.warmup = max(s.warmup/4, 250*time.Millisecond)
		s.parts = partCount(s.window.Seconds())
	}
	s.preludeSlots = 0
	s.setup = setupPolicy{min: 1}
	return s
}

// runWorkload runs one workload once at the given sizing, with the
// benchmark's own spans on or off and (service workloads) that many sessions.
func runWorkload(w workloadSpec, o options, s sizes, traced bool, sessions int) (*workloadResult, error) {
	if w.Fabric {
		plan, _ := fabricPlanFor(w.Name, o.quick)
		slots := s.fabricSlots
		if slots == 0 {
			slots = int64(float64(plan.slotsPerSecond) * s.fabricSeconds)
		}
		slots = max(slots, 100)
		fo := fabricOpts{
			seed: o.seed, slots: slots, warmup: max(s.warmupSlots, slots/10),
			parts: s.parts, limit: s.limit,
			prelude: s.preludeSlots, setup: s.setup,
		}
		if traced {
			fo.rec = newRecorder(time.Now(), 0)
		}
		res, err := runFabric(plan, fo)
		if err == nil && fo.rec != nil {
			res.spans = fo.rec.spans
		}
		return res, err
	}
	return runService(svcPlans[w.Name], svcOpts{
		seed: o.seed, window: s.window, warmup: s.warmup, parts: s.parts,
		sessions: sessions, setup: s.setup, traced: traced,
	})
}

// execute runs the selected workloads and prints, checks and writes the
// results.
func execute(o options, stdout io.Writer) error {
	env := environment()
	fmt.Fprintf(stdout, "bench: nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d; socket traffic crosses the host's %s\n",
		env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit, o.seed, env.Network)
	sz := o.sizes()
	full := resultJSON{Env: env, Seed: o.seed}
	// pass is what was run for one workload. plain is the spans-off run the
	// traced pass is compared with: the full-length end-to-end pass when
	// there is one, else (driver form, -trace 1) a quarter-length reference.
	type pass struct {
		spec        workloadSpec
		plain, trac *workloadResult
		solo        *workloadResult // service only: quarter-length, spans off, one session
		rows        []spanRow       // the traced pass's span summary
	}
	var passes []*pass
	wantTrace := !o.noTrace && (!o.driver || o.trace == 1)
	wantE2E := !o.driver || o.trace == 0

	// Spans are summarized and written out as soon as their pass ends, then
	// dropped, so one workload's spans are not another's live heap.
	var traceFile *os.File
	if o.traceOut != "" && wantTrace {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		traceFile = f
	}
	keepSpans := func(name string, spans []span) ([]spanRow, error) {
		if traceFile != nil {
			if err := writeSpans(traceFile, name, spans); err != nil {
				return nil, err
			}
		}
		return summarize(spans), nil
	}

	for _, w := range o.workloads {
		p := &pass{spec: w}
		passes = append(passes, p)
		var err error
		if wantE2E {
			if p.plain, err = runWorkload(w, o, sz, false, o.generators); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "\n== %s: end to end (spans off) ==\n", w.Name)
			printMetrics(stdout, e2eNames(), p.plain.e2e)
			printOutcome(stdout, p.plain)
		}
		if !wantTrace {
			continue
		}
		if p.plain == nil {
			if p.plain, err = runWorkload(w, o, sz.quarter(), false, o.generators); err != nil {
				return err
			}
		}
		if p.trac, err = runWorkload(w, o, sz.quarter(), true, o.generators); err != nil {
			return err
		}
		if p.rows, err = keepSpans(w.Name, p.trac.spans); err != nil {
			return err
		}
		p.trac.spans = nil
		if !w.Fabric && o.generators > 1 {
			// The flow budget prices one request alone; what two sessions
			// add on top is queueing, measured by difference.
			if p.solo, err = runWorkload(w, o, sz.quarter(), false, 1); err != nil {
				return err
			}
		}
	}

	var lad *ladder
	churnHeadline := 0.0
	if wantTrace {
		rec := newRecorder(time.Now(), 7)
		var err error
		if lad, err = runLadder(o.seed, sz.ladderScale, rec); err != nil {
			return err
		}
		if _, err := keepSpans("ladder", rec.spans); err != nil {
			return err
		}
		lad.rec = nil
		full.Ladder = lad.m
		for _, p := range passes {
			if p.spec.Name == "svc_churn" {
				churnHeadline = p.plain.headline
			}
		}
	}

	ok := true
	for _, p := range passes {
		res := p.plain
		if p.trac != nil {
			if p.spec.Name == "svc_traced" && churnHeadline == 0 {
				// The tracing tax is a ratio to svc_churn; measure its base.
				churn, _ := findWorkload("svc_churn")
				ref, err := runWorkload(churn, o, sz.quarter(), false, o.generators)
				if err != nil {
					return err
				}
				churnHeadline = ref.headline
			}
			deriveLayers(p.spec, p.plain, p.solo, p.trac, lad, churnHeadline, !o.quick && !o.driver)
			fmt.Fprintf(stdout, "\n== %s: traced pass (quarter length, spans on) ==\n", p.spec.Name)
			printMetrics(stdout, e2eNames(), p.trac.e2e)
			fmt.Fprintln(stdout, "  -- per-layer metrics of this workload --")
			printMetrics(stdout, layerNames(), p.trac.layer)
			printSpanRows(stdout, p.rows)
			printOutcome(stdout, p.trac)
			// One record per workload: the end-to-end pass's numbers (the
			// traced pass's, in the driver's -trace 1 form), the traced
			// pass's layer metrics, and every pass's failures.
			if wantE2E {
				res.layer = p.trac.layer
				res.failures = append(res.failures, p.trac.failures...)
				res.notes = append(res.notes, p.trac.notes...)
			} else {
				res = p.trac
				res.failures = append(res.failures, p.plain.failures...)
			}
			if p.solo != nil {
				res.failures = append(res.failures, p.solo.failures...)
			}
		}
		if !res.correct() {
			ok = false
		}
		full.Workloads = append(full.Workloads, res.toJSON(p.spec, p.rows))
	}
	if lad != nil {
		fmt.Fprintf(stdout, "\n== layer ladder (k=%d repetitions per rung, quiet quantile and spread) ==\n", ladderReps)
		printMetrics(stdout, layerNames(), lad.m)
		for _, p := range passes {
			printBudget(stdout, p.spec, p.plain, p.solo, p.trac, lad)
		}
	}

	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			return err
		}
	}
	if o.out != "" {
		data, err := json.MarshalIndent(full, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if o.driver {
		p := passes[0]
		res := p.plain
		if !wantE2E {
			res = p.trac
		}
		line, err := driverLine(p.spec, res, full.Workloads[0].Correct, o.trace, lad)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, line)
	}
	if !ok {
		return fmt.Errorf("correctness gate failed (see FAILED lines above)")
	}
	return nil
}

// printOutcome prints a run's counts, digests, notes and gate failures.
func printOutcome(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "  attempted %d, failed %d", r.attempted, r.failed)
	if r.digest != "" {
		fmt.Fprintf(w, ", sim_digest %s, route_digest %s", r.digest, r.routes)
	}
	fmt.Fprintln(w)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  NOTE: %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// driverLine is the last line of a driver-form run: one JSON object with
// exactly the keys correct, attempted, failed and metrics. With trace 0 the
// metrics are BENCHMARK.json's end-to-end metrics, each workload filling the
// throughput and latency columns from its own metric of that kind; with
// trace 1 they are all per-layer metrics, 0 where one does not apply to the
// workload.
func driverLine(spec workloadSpec, r *workloadResult, correct bool, trace int, lad *ladder) (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]val{}
	if trace == 0 {
		for _, c := range contractSpecs {
			m, ok := r.e2e[c.source(spec)]
			if !ok {
				return "", fmt.Errorf("%s did not produce %s", spec.Name, c.source(spec))
			}
			metrics[c.Name] = val{m.Value, c.Unit}
		}
	} else {
		for _, l := range layerSpecs {
			m, ok := lad.m[l.Name]
			if !ok {
				m = r.layer[l.Name] // zero value where the metric does not apply
			}
			metrics[l.Name] = val{m.Value, l.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{correct, max(r.attempted, 1), r.failed, metrics})
	return string(line), err
}
