package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"avfda/internal/loadgen"
)

func TestParse(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: avfda/internal/snapshot2
cpu: some CPU @ 3.00GHz
BenchmarkSnapshotLoad-8             	     166	   7106071 ns/op
BenchmarkSnapshotPipelineRebuild-8  	       3	 411447130 ns/op
BenchmarkSnapshotWrite              	     500	   2000000 ns/op
BenchmarkSnapshotV2Load-8           	    5000	    140000 ns/op	  840000 bytes
BenchmarkFractional-16              	    1000	     123.4 ns/op	   2 B/op
PASS
ok  	avfda/internal/snapshot2	5.1s
`
	got, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkSnapshotLoad":            7106071,
		"BenchmarkSnapshotPipelineRebuild": 411447130,
		"BenchmarkSnapshotWrite":           2000000,
		"BenchmarkSnapshotV2Load":          140000,
		"BenchmarkSnapshotV2Load/bytes":    840000,
		"BenchmarkFractional":              123.4,
		"BenchmarkFractional/B_op":         2,
		// Stable aliases for the snapshot cold-load trajectory. The retired
		// v1 row keeps only its raw name: it has no alias any more.
		"Snapshot2/load_ns": 140000,
		"Snapshot2/bytes":   840000,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for name, ns := range want {
		if got[name] != ns {
			t.Errorf("%s = %v, want %v", name, got[name], ns)
		}
	}
}

func TestParseEmpty(t *testing.T) {
	got, err := parse(strings.NewReader("no benchmarks here\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("parsed %v from non-benchmark input", got)
	}
}

// -load folds an avload report into the flat map: quantiles in ns on the
// micro-benchmark axis, counters by suffix, per-op p99 for ops that ran.
func TestRunFoldsLoadReport(t *testing.T) {
	rep := loadgen.Report{
		Schema:       loadgen.ReportSchema,
		Requests:     1000,
		RPS:          250.5,
		ColdRequests: 40,
		Errors:       2,
		Latency:      loadgen.LatencyStats{P50ms: 1.5, P90ms: 3, P99ms: 12, P999ms: 30, MeanMs: 2},
		Ops: []loadgen.OpStats{
			{Name: "reliability", Requests: 400, P99ms: 10},
			{Name: "never-ran", Requests: 0, P99ms: 0},
		},
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	bench := "BenchmarkSnapshotV2Write-8 \t 10\t 7106071 ns/op\n"
	var out strings.Builder
	if err := run("", "", []string{path}, nil, strings.NewReader(bench), &out); err != nil {
		t.Fatal(err)
	}
	var got map[string]float64
	if err := json.Unmarshal([]byte(out.String()), &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkSnapshotV2Write":        7106071,
		"ServeLoad/rps":                   250.5,
		"ServeLoad/requests":              1000,
		"ServeLoad/cold_requests":         40,
		"ServeLoad/errors":                2,
		"ServeLoad/p50_ns":                1.5e6,
		"ServeLoad/p90_ns":                3e6,
		"ServeLoad/p99_ns":                12e6,
		"ServeLoad/p999_ns":               30e6,
		"ServeLoad/mean_ns":               2e6,
		"ServeLoad/op/reliability/p99_ns": 10e6,
	}
	if len(got) != len(want) {
		t.Fatalf("folded %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}

	// With -load, empty stdin is fine; without it, it stays an error.
	if err := run("", "", []string{path}, nil, strings.NewReader(""), &strings.Builder{}); err != nil {
		t.Errorf("empty stdin with -load: %v", err)
	}
	if err := run("", "", nil, nil, strings.NewReader(""), &strings.Builder{}); err == nil {
		t.Error("empty stdin without -load: want error")
	}
}

// Repeated -load entries with Prefix=path keys land side by side under
// their own prefixes — the proxy-smoke artifact shape.
func TestRunFoldsMultipleNamedReports(t *testing.T) {
	dir := t.TempDir()
	writeReport := func(name string, rps float64, notModified int64) string {
		rep := loadgen.Report{
			Schema:      loadgen.ReportSchema,
			Requests:    100,
			RPS:         rps,
			NotModified: notModified,
			Latency:     loadgen.LatencyStats{P50ms: 1, P90ms: 2, P99ms: 3, P999ms: 4, MeanMs: 1},
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	serve := writeReport("serve.json", 100, 0)
	proxy := writeReport("proxy.json", 180, 12)

	var out strings.Builder
	err := run("", "", []string{serve, "ProxyLoad=" + proxy}, nil, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]float64
	if err := json.Unmarshal([]byte(out.String()), &got); err != nil {
		t.Fatal(err)
	}
	if got["ServeLoad/rps"] != 100 || got["ProxyLoad/rps"] != 180 {
		t.Errorf("rps keys = %v / %v, want 100 / 180", got["ServeLoad/rps"], got["ProxyLoad/rps"])
	}
	if got["ProxyLoad/not_modified"] != 12 {
		t.Errorf("ProxyLoad/not_modified = %v, want 12", got["ProxyLoad/not_modified"])
	}
	if _, ok := got["ServeLoad/not_modified"]; ok {
		t.Error("ServeLoad/not_modified present for a report with zero 304s")
	}
}

// -merge seeds the output from an existing artifact so a later harness
// adds its keys without erasing the earlier ones; stdin and -load keys win
// on collision, and a missing merge file is an empty start, not an error.
func TestRunMergesExistingArtifact(t *testing.T) {
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "BENCH.json")
	if err := os.WriteFile(benchPath, []byte(`{"Snapshot2/load_ns": 164551, "ServeLoad/rps": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := loadgen.Report{
		Schema:  loadgen.ReportSchema,
		RPS:     250,
		Latency: loadgen.LatencyStats{P50ms: 1, P90ms: 2, P99ms: 3, P999ms: 4, MeanMs: 1},
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	repPath := filepath.Join(dir, "report.json")
	if err := os.WriteFile(repPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run("", benchPath, []string{repPath}, nil, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	var got map[string]float64
	if err := json.Unmarshal([]byte(out.String()), &got); err != nil {
		t.Fatal(err)
	}
	if got["Snapshot2/load_ns"] != 164551 {
		t.Errorf("merged key lost: %v", got)
	}
	if got["ServeLoad/rps"] != 250 {
		t.Errorf("ServeLoad/rps = %v, want the fresh report (250) to win", got["ServeLoad/rps"])
	}

	if err := run("", filepath.Join(dir, "absent.json"), []string{repPath}, nil, strings.NewReader(""), &strings.Builder{}); err != nil {
		t.Errorf("missing -merge file should be an empty start: %v", err)
	}
	if err := run("", repPath, nil, nil, strings.NewReader(""), &strings.Builder{}); err == nil {
		t.Error("-merge over a non-BENCH json: want parse error")
	}
}

// A -load file that is not an avload/1 report is rejected, not silently
// folded as zeros.
func TestRunRejectsBadLoadReport(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"not-json.json":     "nope",
		"wrong-schema.json": `{"schema":"other/9"}`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run("", "", []string{path}, nil, strings.NewReader(""), &strings.Builder{}); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	if err := run("", "", []string{filepath.Join(dir, "missing.json")}, nil, strings.NewReader(""), &strings.Builder{}); err == nil {
		t.Error("missing -load file: want error")
	}
}

func TestWriteSortedJSON(t *testing.T) {
	var sb strings.Builder
	err := write(&sb, map[string]float64{"BenchmarkB": 2, "BenchmarkA": 1.5})
	if err != nil {
		t.Fatal(err)
	}
	want := "{\n  \"BenchmarkA\": 1.5,\n  \"BenchmarkB\": 2\n}\n"
	if sb.String() != want {
		t.Fatalf("write = %q, want %q", sb.String(), want)
	}
}

// -flat folds an already-flat name→number map (the avlint -timings shape)
// verbatim, makes stdin optional, and overlays -merge keys like any other
// input; malformed or missing files are errors.
func TestRunFoldsFlatFile(t *testing.T) {
	dir := t.TempDir()
	flat := filepath.Join(dir, "lint.json")
	if err := os.WriteFile(flat, []byte(`{"Lint/total_ns": 1500000000, "Lint/resleak_ns": 250000000}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(base, []byte(`{"BenchmarkTableI": 42, "Lint/total_ns": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run("", base, nil, []string{flat}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	var got map[string]float64
	if err := json.Unmarshal([]byte(out.String()), &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkTableI": 42,
		"Lint/total_ns":   1.5e9, // -flat overlays the stale merged value
		"Lint/resleak_ns": 2.5e8,
	}
	if len(got) != len(want) {
		t.Fatalf("folded %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`["not", "a", "map"]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("", "", nil, []string{bad}, strings.NewReader(""), &strings.Builder{}); err == nil {
		t.Error("malformed -flat file: want error")
	}
	if err := run("", "", nil, []string{filepath.Join(dir, "missing.json")}, strings.NewReader(""), &strings.Builder{}); err == nil {
		t.Error("missing -flat file: want error")
	}
}
