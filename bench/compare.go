package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []boundSpec `json:"end_to_end"`
}

// boundSpec is one end-to-end metric's direction and regression bound,
// as a share of the baseline median.
type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// verdict is the outcome of comparing one metric on one workload.
type verdict struct {
	change float64 // (B - A) / A on the medians
	label  string  // ok, better, regressed or unresolved
}

// compareMetric judges B against baseline A for one metric: regressed
// when B's median is worse than A's by more than the bound; unresolved
// when either side's quartile spread exceeds the bound, unless every run
// of B beats every run of A.
func compareMetric(a, b []float64, bs boundSpec) verdict {
	ma, mb := median(a), median(b)
	v := verdict{change: (mb - ma) / math.Abs(ma)}
	worse := v.change
	if bs.Better == "higher" {
		worse = -worse
	}
	if spread(a) > bs.Bound || spread(b) > bs.Bound {
		v.label = "unresolved"
		if allBetter(a, b, bs.Better) {
			v.label = "better"
		}
		return v
	}
	switch {
	case worse > bs.Bound:
		v.label = "regressed"
	case allBetter(a, b, bs.Better) && -worse > bs.Bound:
		v.label = "better"
	default:
		v.label = "ok"
	}
	return v
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, better string) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if len(sa) == 0 || len(sb) == 0 {
		return false
	}
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// runCompare prints one row per workload comparing result file b against
// baseline a with BENCHMARK.json's bounds. It exits 1 when anything
// regressed and 2 when the files cannot be compared.
func runCompare(pathA, pathB string, stdout, stderr io.Writer) int {
	fa, err := readResultFile(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fb, err := readResultFile(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if fa.Settings != fb.Settings || fa.Env != fb.Env {
		fmt.Fprintf(stderr, "bench: refusing to compare: %s has settings %+v on %+v, %s has %+v on %+v\n",
			pathA, fa.Settings, fa.Env, pathB, fb.Settings, fb.Env)
		return 2
	}
	repo, err := findRepo()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	spec, err := readBenchSpec(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	regressed := false
	fmt.Fprintf(stdout, "B %s against baseline A %s; change of the median, verdict against each bound\n", pathB, pathA)
	for _, w := range workloads {
		runsA, runsB := runsOf(fa, w), runsOf(fb, w)
		if len(runsA) == 0 || len(runsB) == 0 {
			continue
		}
		cells := []string{fmt.Sprintf("%-9s n=%d/%d", w, len(runsA), len(runsB))}
		for _, bs := range spec.EndToEnd {
			a, b := metricValues(runsA, bs.Name), metricValues(runsB, bs.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := compareMetric(a, b, bs)
			regressed = regressed || v.label == "regressed"
			cells = append(cells, fmt.Sprintf("%s %+.1f%% %s", bs.Name, 100*v.change, v.label))
		}
		ea, eb := median(errorRates(runsA)), median(errorRates(runsB))
		label := "ok"
		if eb > ea {
			label, regressed = "regressed", true
		}
		cells = append(cells, fmt.Sprintf("error_rate %.4f->%.4f %s", ea, eb, label))
		fmt.Fprintln(stdout, strings.Join(cells, " | "))
	}
	if regressed {
		return 1
	}
	return 0
}

func readBenchSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func runsOf(f *resultFile, workload string) []record {
	var out []record
	for _, r := range f.Runs {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	return out
}

func metricValues(runs []record, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func errorRates(runs []record) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = float64(r.Failed) / float64(max(r.Attempted, 1))
	}
	return out
}
