// Command bench is the avfda benchmark: one command that drives the real
// avserve binary and the in-process study pipeline through six workloads,
// checks every answer, and prints each end-to-end metric by name and unit.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload name] [-seed N] [-trace 0|1]
//	                  [-spans out.jsonl] [-o results.json]
//	bash bench/run.sh -compare A.json B.json
//
// or, from bench/, `go run . ...` with the same flags. Without -workload
// every workload runs, each in a fresh process. -trace 1 reruns the load
// with spans recorded by the benchmark around each call into a layer,
// replays the request sequence in process, and prints per-layer metrics
// instead of end-to-end ones. -o appends the run to a result file, which
// -compare reads. -seconds is accepted for callers that pass
// BENCHMARK.json's run_seconds, and must equal it. See bench/README.md for
// the metrics and workloads.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed output check exits
// nonzero without printing it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runSeconds is how long each run measures; BENCHMARK.json's run_seconds
// says the same.
const runSeconds = 15

// options are the command-line settings.
type options struct {
	workload string
	seed     int64
	trace    int
	spans    string
	out      string
	compare  bool
	repo     string // found, not set
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var seconds int
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all, each in a fresh process): "+strings.Join(workloads, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed every input derives from: study seeds, request sequences, page offsets")
	fs.IntVar(&seconds, "seconds", runSeconds, "measured seconds per run; must be BENCHMARK.json's run_seconds")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run printing per-layer metrics; 0: untraced end-to-end metrics")
	fs.StringVar(&o.spans, "spans", "", "span file of a traced run (default .bench_build/traces/<workload>-<seed>.jsonl)")
	fs.StringVar(&o.out, "o", "", "append this run to a result file for -compare")
	fs.BoolVar(&o.compare, "compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || seconds != runSeconds || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(stderr, "bench: want -seconds %d, -trace 0 or 1, and no positional arguments\n", runSeconds)
		return 2
	}
	repo, err := findRepo()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	o.repo = repo
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.workload == "" {
		return runAll(ctx, o, stdout, stderr)
	}
	if err := runOne(ctx, o, stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// findRepo locates the repository root: whichever of "." and ".." holds
// cmd/avserve.
func findRepo() (string, error) {
	for _, c := range []string{".", ".."} {
		if st, err := os.Stat(filepath.Join(c, "cmd", "avserve")); err == nil && st.IsDir() {
			return filepath.Abs(c)
		}
	}
	return "", errors.New("no cmd/avserve under . or ..: run from the repository root or bench/")
}

// runOne runs one workload in this process and prints its result.
func runOne(ctx context.Context, o options, stdout io.Writer) error {
	known := false
	for _, w := range workloads {
		known = known || w == o.workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q: want one of %s", o.workload, strings.Join(workloads, ", "))
	}
	h, err := newHarness(o.repo)
	if err != nil {
		return err
	}
	rc := &runCtx{h: h, seed: o.seed, conns: min(2, runtime.NumCPU())}
	if o.trace == 1 {
		rc.tr = newTracer()
	}
	res, runErr := runWorkload(ctx, rc, o.workload)
	// Release children and scratch space before reporting, so the record
	// can state that they were.
	closeErr := h.close()
	if runErr != nil {
		return runErr
	}
	if closeErr != nil {
		return fmt.Errorf("cleanup: %w", closeErr)
	}
	if rc.tr != nil {
		path := o.spans
		if path == "" {
			path = filepath.Join(o.repo, ".bench_build", "traces", fmt.Sprintf("%s-%d.jsonl", o.workload, o.seed))
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := rc.tr.writeJSONL(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		res.note("spans written to %s", path)
	}
	rec := newRecord(o, res, h)
	if o.out != "" {
		if err := appendRecord(o.out, settingsOf(o), rec); err != nil {
			return err
		}
	}
	printResult(stdout, res, o.trace == 1)
	metrics := res.Metrics
	if o.trace == 1 {
		metrics = res.Layers
	}
	return json.NewEncoder(stdout).Encode(summary{Correct: true, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: metrics})
}

// summary is the contract line every run ends with.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runAll runs every workload, each in a fresh process of this binary so
// that each workload's peak memory is its own, and ends with a summary
// whose metric names are prefixed with the workload.
func runAll(ctx context.Context, o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	all := summary{Correct: true, Metrics: make(map[string]metric)}
	for _, w := range workloads {
		args := []string{"-workload", w, "-seed", fmt.Sprint(o.seed), "-trace", fmt.Sprint(o.trace)}
		if o.out != "" {
			args = append(args, "-o", o.out)
		}
		var buf bytes.Buffer
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stdout = io.MultiWriter(&buf, stdout)
		cmd.Stderr = stderr
		// On SIGINT the child gets the signal too; give it time to stop its
		// own children and remove its temp dirs before it is killed.
		cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
		cmd.WaitDelay = 15 * time.Second
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", w, err)
			return 1
		}
		var s summary
		if err := json.Unmarshal(lastLine(buf.Bytes()), &s); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: result line: %v\n", w, err)
			return 1
		}
		all.Attempted += s.Attempted
		all.Failed += s.Failed
		for k, v := range s.Metrics {
			all.Metrics[w+"/"+k] = v
		}
	}
	if err := json.NewEncoder(stdout).Encode(all); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// printResult prints the human-readable table for one run.
func printResult(w io.Writer, res *result, traced bool) {
	fmt.Fprintf(w, "workload %s  seed %d  %.1f s measured  %s loop, %d connection(s)\n",
		res.Workload, res.Seed, res.Seconds, res.Loop, res.Conns)
	metrics := res.Metrics
	if traced {
		metrics = res.Layers
	}
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	rate := 0.0
	if res.Attempted > 0 {
		rate = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "  %-32s %14.4f (%d failed of %d attempted)\n", "error_rate", rate, res.Failed, res.Attempted)
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// settings are what two result files must share to be compared.
type settings struct {
	Conns int  `json:"conns"`
	Trace bool `json:"trace"`
}

func settingsOf(o options) settings {
	return settings{Conns: min(2, runtime.NumCPU()), Trace: o.trace == 1}
}

// environment is the machine a result file was measured on.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func currentEnv() environment {
	return environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// record is one run in a result file, with its provenance.
type record struct {
	result
	Commit  string  `json:"commit"`
	Dirty   bool    `json:"dirty"`
	Hygiene hygiene `json:"hygiene"`
}

// hygiene states what the run guaranteed about the machine it ran on.
type hygiene struct {
	Ports           string `json:"ports"`
	ChildrenStopped int    `json:"children_stopped"`
	ChildrenLeft    int    `json:"children_left"`
	Signals         string `json:"signals"`
	TempRemoved     bool   `json:"temp_removed"`
}

func newRecord(o options, res *result, h *harness) record {
	commit, dirty := gitState(o.repo)
	_, statErr := os.Stat(h.tmp)
	h.mu.Lock()
	defer h.mu.Unlock()
	return record{result: *res, Commit: commit, Dirty: dirty, Hygiene: hygiene{
		Ports:           "127.0.0.1, kernel-assigned free port per process",
		ChildrenStopped: h.stopped,
		ChildrenLeft:    len(h.procs),
		Signals:         "SIGINT/SIGTERM stop every child and remove temp dirs; children get SIGKILL if the benchmark dies",
		TempRemoved:     errors.Is(statErr, os.ErrNotExist),
	}}
}

// gitState returns the checked-out commit and whether the tree has
// changes, or "unknown" outside a git checkout.
func gitState(repo string) (string, bool) {
	out, err := exec.Command("git", "-C", repo, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, err := exec.Command("git", "-C", repo, "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), err != nil || len(bytes.TrimSpace(status)) > 0
}

// resultFile is what -o writes and -compare reads: runs that share
// settings and environment.
type resultFile struct {
	Schema   string      `json:"schema"`
	Settings settings    `json:"settings"`
	Env      environment `json:"env"`
	Runs     []record    `json:"runs"`
}

const resultSchema = "avfda-bench/1"

// appendRecord adds rec to the result file at path, creating it if
// needed, and refuses a file measured with other settings or elsewhere.
func appendRecord(path string, s settings, rec record) error {
	f := resultFile{Schema: resultSchema, Settings: s, Env: currentEnv()}
	if old, err := readResultFile(path); err == nil {
		if old.Settings != f.Settings || old.Env != f.Env {
			return fmt.Errorf("%s holds runs with settings %+v on %+v; this run has %+v on %+v",
				path, old.Settings, old.Env, f.Settings, f.Env)
		}
		f.Runs = old.Runs
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f.Runs = append(f.Runs, rec)
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return &f, nil
}
