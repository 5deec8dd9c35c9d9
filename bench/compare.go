package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// Verdicts of one workload x end-to-end metric row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges new against base for one end-to-end metric. worse: the
// median moved in the bad direction by more than the bound (a share of the
// base, plus the metric's absolute slack). unresolved: it did not, but the
// spread of either side is wider than the bound, so the run cannot tell.
// ratio is new/base (0 when base is 0).
func verdict(spec e2eSpec, base, cur metric) (v string, ratio float64) {
	if base.Value != 0 {
		ratio = cur.Value / base.Value
	}
	worseBy := cur.Value - base.Value
	if spec.Better == "higher" {
		worseBy = -worseBy
	}
	allowed := spec.Bound*math.Abs(base.Value) + spec.Slack
	if worseBy > allowed {
		return verdictWorse, ratio
	}
	if spec.Bound > 0 && math.Max(base.Spread, cur.Spread) > spec.Bound+spec.Slack/math.Max(math.Abs(base.Value), 1e-12) {
		return verdictUnresolved, ratio
	}
	return verdictOK, ratio
}

func readResult(path string) (*resultJSON, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultJSON
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// readSet reads one side of a comparison: a result file, or several
// separated by commas — a set of runs. A set is folded into one result whose
// every end-to-end metric is the median over the files, with the spread
// between the files ((max-min)/median) in place of the spread inside one.
func readSet(paths string) (*resultJSON, error) {
	var files []*resultJSON
	for _, p := range strings.Split(paths, ",") {
		r, err := readResult(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		files = append(files, r)
	}
	if len(files) == 1 {
		return files[0], nil
	}
	out := *files[0]
	out.Workloads = nil
	for _, w := range files[0].Workloads {
		folded := w
		folded.EndToEnd = map[string]metric{}
		for name, first := range w.EndToEnd {
			var vals []float64
			var n int64
			for _, f := range files {
				for _, fw := range f.Workloads {
					if m, ok := fw.EndToEnd[name]; ok && fw.Name == w.Name {
						vals = append(vals, m.Value)
						n += m.N
					}
				}
			}
			folded.EndToEnd[name] = medianOfParts(vals, first.Unit, n)
		}
		for _, f := range files[1:] {
			for _, fw := range f.Workloads {
				if fw.Name == w.Name && (fw.SimDigest != w.SimDigest || fw.Routes != w.Routes) {
					folded.SimDigest, folded.Routes = "(varies)", "(varies within the set)"
				}
			}
		}
		out.Workloads = append(out.Workloads, folded)
	}
	return &out, nil
}

// compareFiles prints one row per workload x end-to-end metric present on
// both sides and returns a non-zero exit code when any row is worse.
func compareFiles(basePaths, newPaths string, stdout, stderr io.Writer) int {
	base, err := readSet(basePaths)
	if err == nil {
		var cur *resultJSON
		if cur, err = readSet(newPaths); err == nil {
			return compareResults(base, cur, stdout)
		}
	}
	fmt.Fprintf(stderr, "bench: %v\n", err)
	return 2
}

func compareResults(base, cur *resultJSON, stdout io.Writer) int {
	fmt.Fprintf(stdout, "base: commit %s, seed %d    new: commit %s, seed %d\n",
		base.Env.Commit, base.Seed, cur.Env.Commit, cur.Seed)
	fmt.Fprintf(stdout, "%-14s %-24s %14s %8s %14s %8s %8s %7s  %s\n",
		"workload", "metric", "base", "spread", "new", "spread", "new/base", "bound", "verdict")
	byName := map[string]workloadJSON{}
	for _, w := range cur.Workloads {
		byName[w.Name] = w
	}
	counts := map[string]int{}
	for _, bw := range base.Workloads {
		cw, ok := byName[bw.Name]
		if !ok {
			continue
		}
		for _, spec := range e2eSpecs {
			b, okb := bw.EndToEnd[spec.Name]
			c, okc := cw.EndToEnd[spec.Name]
			if !okb || !okc {
				continue
			}
			v, ratio := verdict(spec, b, c)
			counts[v]++
			bound := fmt.Sprintf("%.0f%%", 100*spec.Bound)
			if spec.Slack > 0 {
				bound += fmt.Sprintf("+%g", spec.Slack)
			}
			fmt.Fprintf(stdout, "%-14s %-24s %14s %7.1f%% %14s %7.1f%% %8.3f %7s  %s\n",
				bw.Name, spec.Name, formatValue(b.Value), 100*b.Spread,
				formatValue(c.Value), 100*c.Spread, ratio, bound, v)
		}
		if bw.SimDigest != "" && base.Seed == cur.Seed {
			same := "identical"
			switch {
			case bw.SimDigest == cw.SimDigest:
			case bw.Routes != cw.Routes:
				same = "not comparable: the two runs routed their circuits differently (route_digest differs)"
			default:
				same = "DIFFERENT over the same routes"
			}
			fmt.Fprintf(stdout, "%-14s %-24s %s (%s vs %s)\n", bw.Name, "sim_digest", same, bw.SimDigest, cw.SimDigest)
		}
	}
	fmt.Fprintf(stdout, "%d ok, %d worse, %d unresolved\n",
		counts[verdictOK], counts[verdictWorse], counts[verdictUnresolved])
	if counts[verdictWorse] > 0 {
		return 1
	}
	return 0
}
