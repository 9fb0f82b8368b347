// Command benchjson converts `go test -bench` text output into a JSON
// object mapping benchmark name to ns/op, for machine-readable benchmark
// artifacts (the `make bench-json` and `make load-smoke` targets feed it
// and CI uploads/commits the result as BENCH_<date>.json).
//
// Usage:
//
//	go test -bench ... | benchjson [-o BENCH_2026-08-05.json] [-load report.json]
//	          [-merge BENCH_2026-08-05.json]
//
// Without -o the JSON goes to stdout. The GOMAXPROCS suffix go test
// appends to benchmark names (e.g. BenchmarkSnapshotV2Load-8) is stripped so
// artifacts from machines with different core counts stay comparable. A
// benchmark that appears more than once keeps its last measurement.
//
// Every metric on a result row is captured, not just ns/op: units a
// benchmark reports via b.ReportMetric (e.g. the "bytes" snapshot size
// BenchmarkSnapshotV2Load emits) land under <name>/<unit>, with "/" in
// the unit flattened to "_" ("B/op" -> "B_op"). Rows whose raw names
// track a pinned perf contract additionally get a stable alias (e.g.
// Snapshot2/load_ns for the snapshot cold-load trajectory) so dashboards
// survive benchmark renames.
//
// -load folds an avload JSON report (cmd/avload -json, the avload/1
// schema) into the same flat map under ServeLoad/ keys — latency quantiles
// in nanoseconds to match the micro-benchmarks, plus rps and error/request
// counts — so a single BENCH_<date>.json carries the micro and serving
// perf trajectory together. With -load, benchmark input on stdin is
// optional (pipe /dev/null to fold a report alone). -load repeats, and an
// entry may carry a key prefix as `Prefix=path` — `-load serve.json -load
// ProxyLoad=proxy.json` folds the first under ServeLoad/ (the default) and
// the second under ProxyLoad/, which is how the proxy-smoke harness lands
// the single-backend and sharded runs side by side in one artifact.
//
// -flat folds a file that is already a flat name→number JSON map (e.g.
// `avlint -timings`'s Lint/total_ns + per-analyzer costs) verbatim — keys
// are taken as fully qualified. Like -load it repeats and makes stdin
// benchmark input optional, which is how `make lint` lands the analyzer
// suite's wall times in the day's BENCH artifact.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"

	"avfda/internal/loadgen"
)

// loadList collects repeated -load flags.
type loadList []string

func (l *loadList) String() string     { return strings.Join(*l, ",") }
func (l *loadList) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	out := flag.String("o", "", "write the JSON here instead of stdout")
	merge := flag.String("merge", "", "start from this existing BENCH json, overlaying stdin and -load keys (missing file = empty start)")
	var loads loadList
	flag.Var(&loads, "load", "fold an avload -json report into the output (repeatable; [Prefix=]path, default prefix ServeLoad)")
	var flats loadList
	flag.Var(&flats, "flat", "fold a flat name→number JSON map into the output verbatim (repeatable; e.g. avlint -timings output)")
	flag.Parse()

	if err := run(*out, *merge, loads, flats, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// run reads benchmark text from stdin and any avload reports or flat
// maps, then writes the merged flat JSON map. With -merge, keys from an
// earlier artifact survive so separate harnesses (bench-json, load-smoke,
// proxy-smoke, lint) can each fold their slice into one BENCH_<date>.json.
func run(outPath, mergePath string, loads, flats []string, stdin io.Reader, stdout io.Writer) error {
	base := make(map[string]float64)
	if mergePath != "" {
		raw, err := os.ReadFile(mergePath)
		switch {
		case err == nil:
			if err := json.Unmarshal(raw, &base); err != nil {
				return fmt.Errorf("parse -merge file %s: %w", mergePath, err)
			}
		case os.IsNotExist(err):
			// First harness to run: nothing to merge yet.
		default:
			return fmt.Errorf("read -merge file: %w", err)
		}
	}
	results, err := parse(stdin)
	if err != nil {
		return err
	}
	for k, v := range results {
		base[k] = v
	}
	results = base
	for _, entry := range loads {
		prefix, path := "ServeLoad", entry
		if name, rest, ok := strings.Cut(entry, "="); ok {
			prefix, path = name, rest
		}
		folded, err := loadReport(path, prefix)
		if err != nil {
			return err
		}
		for k, v := range folded {
			results[k] = v
		}
	}
	for _, path := range flats {
		raw, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("read -flat file: %w", err)
		}
		flat := make(map[string]float64)
		if err := json.Unmarshal(raw, &flat); err != nil {
			return fmt.Errorf("parse -flat file %s: %w", path, err)
		}
		for k, v := range flat {
			results[k] = v
		}
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark results on stdin (and no -load or -flat input)")
	}
	var w io.Writer = stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return write(w, results)
}

// loadReport flattens an avload/1 report into BENCH-style metrics under
// the given key prefix. Latency keys carry a _ns suffix (converted from
// the report's milliseconds) so they read on the same axis as ns/op
// micro-benchmarks; counters and rps are dimensioned by their suffix.
func loadReport(path, prefix string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read -load report: %w", err)
	}
	var rep loadgen.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("parse -load report %s: %w", path, err)
	}
	if rep.Schema != loadgen.ReportSchema {
		return nil, fmt.Errorf("-load report %s: schema %q, want %q", path, rep.Schema, loadgen.ReportSchema)
	}
	const msToNs = 1e6
	out := map[string]float64{
		prefix + "/rps":           rep.RPS,
		prefix + "/requests":      float64(rep.Requests),
		prefix + "/cold_requests": float64(rep.ColdRequests),
		prefix + "/errors":        float64(rep.Errors),
		prefix + "/p50_ns":        rep.Latency.P50ms * msToNs,
		prefix + "/p90_ns":        rep.Latency.P90ms * msToNs,
		prefix + "/p99_ns":        rep.Latency.P99ms * msToNs,
		prefix + "/p999_ns":       rep.Latency.P999ms * msToNs,
		prefix + "/mean_ns":       rep.Latency.MeanMs * msToNs,
	}
	if rep.NotModified > 0 {
		out[prefix+"/not_modified"] = float64(rep.NotModified)
	}
	for _, op := range rep.Ops {
		if op.Requests > 0 {
			out[prefix+"/op/"+op.Name+"/p99_ns"] = op.P99ms * msToNs
		}
	}
	return out, nil
}

// benchName matches a result row's leading benchmark name with its
// optional -GOMAXPROCS suffix.
var benchName = regexp.MustCompile(`^(Benchmark\S+?)(-\d+)?$`)

// derived aliases raw benchmark metrics onto the stable perf-trajectory
// keys pinned contracts are tracked under: the snapshot cold load and the
// snapshot file size. Both spellings appear in the artifact.
var derived = map[string]string{
	"BenchmarkSnapshotV2Load":       "Snapshot2/load_ns",
	"BenchmarkSnapshotV2Load/bytes": "Snapshot2/bytes",
}

// parse extracts every metric from benchmark result rows, passing through
// everything that is not a result row (package headers, PASS/ok lines). A
// row reads `<name>[-P] <iterations> (<value> <unit>)...`; ns/op keeps the
// bare benchmark name, any other unit is suffixed.
func parse(r io.Reader) (map[string]float64, error) {
	results := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 {
			continue
		}
		m := benchName.FindStringSubmatch(fields[0])
		if m == nil {
			continue
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue // sub-benchmark header or other non-result line
		}
		name := m[1]
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: %w", sc.Text(), err)
			}
			key := name
			if unit := fields[i+1]; unit != "ns/op" {
				key = name + "/" + strings.ReplaceAll(unit, "/", "_")
			}
			results[key] = val
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for raw, alias := range derived {
		if v, ok := results[raw]; ok {
			results[alias] = v
		}
	}
	return results, nil
}

// write emits the results as indented JSON with sorted keys (Go's map
// marshalling is sorted) and a trailing newline.
func write(w io.Writer, results map[string]float64) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}
