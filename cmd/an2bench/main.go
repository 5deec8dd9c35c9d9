// Command an2bench regenerates every experiment in the AN2 reproduction
// (the registry in internal/exp, currently E1–E31; `-list` enumerates it):
// the paper's figures, worked examples, and quantitative claims, printed
// as tables. E30 exercises the datacenter-fabric layer — fat-trees from
// topology.FatTree recovered hierarchically via fabric.Partition; E31
// measures the wake-set slot engine.
//
// Usage:
//
//	an2bench                 # run everything
//	an2bench -quick          # only the sub-second experiments
//	an2bench -run E2,E4      # selected experiments
//	an2bench -seed 7         # change the seed
//	an2bench -list           # list experiments and claims
//	an2bench -json           # machine-readable results on stdout
//	an2bench -run E2 -cpuprofile cpu.pprof -memprofile mem.pprof -trace run.trace
//
// With -json the output is one JSON array of objects, each carrying the
// experiment id, title, claim, wall time in milliseconds, its tables as
// header/row string matrices, and — for experiments that report their
// simulated-slot count via exp.ReportSlots — the total slots simulated
// ("slots") and the achieved stepping rate ("slots_per_sec"). This is the
// format future sessions use to track a benchmark trajectory across
// commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"repro/internal/exp"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "an2bench:", err)
		os.Exit(1)
	}
}

// jsonTable is one rendered table in -json output.
type jsonTable struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// jsonResult is one experiment's -json record. Slots/SlotsPerSec are only
// present for experiments that declare their simulated-slot count via
// exp.ReportSlots.
type jsonResult struct {
	ID          string      `json:"id"`
	Title       string      `json:"title"`
	Claim       string      `json:"claim"`
	Seed        int64       `json:"seed"`
	WallMillis  int64       `json:"wall_ms"`
	Slots       int64       `json:"slots,omitempty"`
	SlotsPerSec float64     `json:"slots_per_sec,omitempty"`
	Tables      []jsonTable `json:"tables"`
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("an2bench", flag.ContinueOnError)
	var (
		quick    = fs.Bool("quick", false, "run only the fast experiments")
		list     = fs.Bool("list", false, "list experiments without running")
		only     = fs.String("run", "", "comma-separated experiment ids (e.g. E2,E4)")
		seed     = fs.Int64("seed", 42, "random seed")
		jsonFlag = fs.Bool("json", false, "emit machine-readable JSON instead of tables")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile taken after the run to this file")
		runTrace = fs.String("trace", "", "write a runtime execution trace of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *runTrace != "" {
		f, err := os.Create(*runTrace)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return err
		}
		defer trace.Stop()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "an2bench: memprofile:", err)
			}
			f.Close()
		}()
	}

	selected := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Fprintf(w, "%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return nil
	}

	var results []jsonResult
	ran := 0
	for _, e := range exp.All() {
		if len(selected) > 0 && !selected[e.ID] {
			continue
		}
		if *quick && !e.Quick && len(selected) == 0 {
			continue
		}
		if !*jsonFlag {
			fmt.Fprintf(w, "### %s — %s\n", e.ID, e.Title)
			fmt.Fprintf(w, "    paper: %s\n\n", e.Claim)
		}
		exp.TakeSlots() // discard strays from earlier experiments
		start := time.Now()
		tables, err := e.Run(*seed)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		elapsed := time.Since(start)
		slots := exp.TakeSlots()
		var rate float64
		if slots > 0 && elapsed > 0 {
			rate = float64(slots) / elapsed.Seconds()
		}
		if *jsonFlag {
			r := jsonResult{
				ID: e.ID, Title: e.Title, Claim: e.Claim,
				Seed: *seed, WallMillis: elapsed.Milliseconds(),
				Slots: slots, SlotsPerSec: rate,
			}
			for _, t := range tables {
				r.Tables = append(r.Tables, jsonTable{
					Title: t.Title(), Headers: t.Headers(), Rows: t.Rows(),
				})
			}
			results = append(results, r)
		} else {
			for _, t := range tables {
				fmt.Fprintln(w, t.String())
			}
			if slots > 0 {
				fmt.Fprintf(w, "(%s in %v — %d slots, %.0f slots/sec)\n\n",
					e.ID, elapsed.Round(time.Millisecond), slots, rate)
			} else {
				fmt.Fprintf(w, "(%s in %v)\n\n", e.ID, elapsed.Round(time.Millisecond))
			}
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiments matched (have %d registered; try -list)", len(exp.All()))
	}
	if *jsonFlag {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	}
	return nil
}
