package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"avfda/internal/lint"
)

// repoRoot walks up from the working directory to the module root, so the
// test can lint the real repository regardless of where go test runs it.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}

// TestRepoIsLintClean is the suite's acceptance gate: the whole repository,
// tests included, must produce zero diagnostics. A violation anywhere —
// an unsorted map iteration in a determinism-critical package, an
// err.Error() substring match, ambient randomness in a pipeline stage, a
// non-exhaustive ontology switch — fails this test with the exact
// file:line the offender lives at.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("lints the whole repository; skipped in -short mode")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", repoRoot(t), "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Errorf("avlint ./... exited %d\n%s%s", code, stdout.String(), stderr.String())
	}
}

// TestSelectAnalyzers pins the -disable semantics: named analyzers drop
// out, typos are typed errors, and disabling everything is refused.
func TestSelectAnalyzers(t *testing.T) {
	all, err := selectAnalyzers("")
	if err != nil || len(all) != len(lint.All()) || len(all) != 6 {
		t.Fatalf("selectAnalyzers(\"\") = %d analyzers, err %v; want all 6", len(all), err)
	}

	some, err := selectAnalyzers("mapiter,errsubstr")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range some {
		if a.Name == "mapiter" || a.Name == "errsubstr" {
			t.Errorf("disabled analyzer %q still selected", a.Name)
		}
	}
	if len(some) != len(all)-2 {
		t.Errorf("selected %d analyzers, want %d", len(some), len(all)-2)
	}

	_, err = selectAnalyzers("mapiter,nosuch")
	var ue *lint.UnknownAnalyzerError
	if !errors.As(err, &ue) || ue.Name != "nosuch" {
		t.Errorf("selectAnalyzers typo error = %v, want *UnknownAnalyzerError for %q", err, "nosuch")
	}

	var names []string
	for _, a := range lint.All() {
		names = append(names, a.Name)
	}
	if _, err := selectAnalyzers(strings.Join(names, ",")); err == nil {
		t.Error("disabling every analyzer should be an error")
	}
}

// TestListFlag pins that -list names every analyzer, one per line,
// without linting.
func TestListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d: %s", code, stderr.String())
	}
	if lines := strings.Count(stdout.String(), "\n"); lines != 6 {
		t.Errorf("-list printed %d lines, want 6:\n%s", lines, stdout.String())
	}
	for _, a := range lint.All() {
		if !strings.Contains(stdout.String(), a.Name) {
			t.Errorf("-list output missing %q:\n%s", a.Name, stdout.String())
		}
	}
}

// TestDisableTypoExitCode pins that an unknown -disable name is a usage
// error (exit 2), not a silent no-op.
func TestDisableTypoExitCode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-disable", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Errorf("-disable nosuch exited %d, want 2", code)
	}
}

// TestBrokenPackageExitsTwo pins the exit-code contract for load failures:
// a package that does not type-check must exit 2 and surface the type
// error on stderr — never be silently skipped as if it were clean.
func TestBrokenPackageExitsTwo(t *testing.T) {
	broken := filepath.Join(repoRoot(t), "cmd", "avlint", "testdata", "broken")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", broken, "./..."}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("broken fixture exited %d, want 2\nstdout: %s\nstderr: %s",
			code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "broken") {
		t.Errorf("stderr does not name the failing package:\n%s", stderr.String())
	}
}

// TestJSONOutput pins the -json contract: exit 1 on findings, stdout is a
// parseable object whose only key, "findings", is an array carrying
// file/line/analyzer/message for each diagnostic — one per dirty-fixture
// violation, covering resleak alongside errsubstr.
func TestJSONOutput(t *testing.T) {
	dirty := filepath.Join(repoRoot(t), "cmd", "avlint", "testdata", "dirty")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dirty, "-json", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("dirty fixture exited %d, want 1\nstderr: %s", code, stderr.String())
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(stdout.Bytes(), &keys); err != nil {
		t.Fatalf("stdout is not a JSON object: %v\n%s", err, stdout.String())
	}
	if _, ok := keys["findings"]; !ok || len(keys) != 1 {
		t.Errorf("stdout keys = %v, want exactly \"findings\"", keys)
	}
	var report jsonReport
	if err := json.Unmarshal(stdout.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	// One finding per fixture file, keyed by analyzer; the dirty module
	// exists to give every output mode a stable non-empty result set.
	want := map[string]string{
		"errsubstr": "dirty.go",
		"resleak":   "leak.go",
	}
	got := map[string]string{}
	for _, f := range report.Findings {
		if f.Line == 0 || f.Message == "" {
			t.Errorf("finding fields wrong: %+v", f)
		}
		got[f.Analyzer] = filepath.Base(f.File)
	}
	if len(report.Findings) != len(want) {
		t.Errorf("got %d findings, want %d: %+v", len(report.Findings), len(want), report.Findings)
	}
	for analyzer, file := range want {
		if got[analyzer] != file {
			t.Errorf("analyzer %s flagged %q, want %q", analyzer, got[analyzer], file)
		}
	}
}

// TestTestVariantImports pins that an external test package is checked as
// go test builds it: variantsfixture/a_test calls b.Use(a.NewT()), where
// NewT lives in a's export_test.go, which type-checks only if b is checked
// against the test variant of a. The fixture's one errsubstr finding shows
// the external test package was analyzed, not just loaded.
func TestTestVariantImports(t *testing.T) {
	variants := filepath.Join(repoRoot(t), "cmd", "avlint", "testdata", "variants")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", variants, "-json", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("variants fixture exited %d, want 1\nstderr: %s", code, stderr.String())
	}
	var report jsonReport
	if err := json.Unmarshal(stdout.Bytes(), &report); err != nil {
		t.Fatalf("stdout is not a JSON object: %v\n%s", err, stdout.String())
	}
	// go test runs in cmd/avlint, so the path prints relative to it.
	want := jsonFinding{File: filepath.Join("testdata", "variants", "a", "a_test.go"), Line: 19, Column: 5, Analyzer: "errsubstr"}
	if len(report.Findings) != 1 {
		t.Fatalf("got %d findings, want 1: %+v", len(report.Findings), report.Findings)
	}
	got := report.Findings[0]
	got.Message = ""
	if got != want {
		t.Errorf("finding = %+v, want %+v", got, want)
	}
}

// TestJSONOutputCleanTree pins that a clean tree still emits a valid
// object with an empty (non-null) findings array, so CI consumers can
// always unmarshal stdout.
func TestJSONOutputCleanTree(t *testing.T) {
	// The dirty module is clean once its offending analyzers are disabled.
	dirty := filepath.Join(repoRoot(t), "cmd", "avlint", "testdata", "dirty")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dirty, "-json",
		"-disable", "errsubstr,resleak", "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exited %d, want 0\nstderr: %s", code, stderr.String())
	}
	var report jsonReport
	if err := json.Unmarshal(stdout.Bytes(), &report); err != nil {
		t.Fatalf("stdout is not a JSON object: %v\n%s", err, stdout.String())
	}
	if len(report.Findings) != 0 {
		t.Errorf("got %d findings, want 0", len(report.Findings))
	}
	if report.Findings == nil {
		t.Error("findings is null, want an empty array")
	}
}

// TestGHAOutput pins the -gha annotation format: one ::error workflow
// command per finding, with file, line, and the analyzer in the title —
// the dirty fixture's errsubstr and resleak findings, in that order.
func TestGHAOutput(t *testing.T) {
	dirty := filepath.Join(repoRoot(t), "cmd", "avlint", "testdata", "dirty")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dirty, "-gha", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("dirty fixture exited %d, want 1\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "::error file=") {
		t.Errorf("-gha output is not a workflow command:\n%s", out)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("-gha printed %d lines, want 2:\n%s", len(lines), out)
	}
	for i, analyzer := range []string{"errsubstr", "resleak"} {
		if !strings.Contains(lines[i], "title=avlint "+analyzer+"::") {
			t.Errorf("-gha line %d missing analyzer title %q:\n%s", i+1, analyzer, out)
		}
	}
	if !strings.Contains(out, "line=") || !strings.Contains(out, "col=") {
		t.Errorf("-gha output missing position properties:\n%s", out)
	}
}

// TestEscapeWorkflowCommand pins the GitHub workflow-command escaping
// rules for message data and property values.
func TestEscapeWorkflowCommand(t *testing.T) {
	if got := escapeData("50% done\r\nnext"); got != "50%25 done%0D%0Anext" {
		t.Errorf("escapeData = %q", got)
	}
	if got := escapeProperty("a:b,c%d"); got != "a%3Ab%2Cc%25d" {
		t.Errorf("escapeProperty = %q", got)
	}
}

// TestSequentialMatchesParallel pins scheduling-independence: analyzing
// the repository with GOMAXPROCS 1 and GOMAXPROCS 8, which size lint.Run's
// worker pool, must produce byte-identical diagnostics, and two loads must
// return the same packages in the same order.
func TestSequentialMatchesParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the repository twice; skipped in -short mode")
	}
	root := repoRoot(t)
	pkgs, err := lint.LoadModule(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	again, err := lint.LoadModule(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != len(again) {
		t.Fatalf("package counts differ: %d, then %d", len(pkgs), len(again))
	}
	for i := range pkgs {
		if pkgs[i].Path != again[i].Path {
			t.Fatalf("package order differs at %d: %q vs %q", i, pkgs[i].Path, again[i].Path)
		}
	}

	analyzers := lint.All()
	runWith := func(procs int) []lint.Diagnostic {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		diags, err := lint.Run(pkgs, analyzers)
		if err != nil {
			t.Fatal(err)
		}
		return diags
	}
	seq, par := runWith(1), runWith(8)
	if len(seq) != len(par) {
		t.Fatalf("diagnostic counts differ: sequential %d, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("diagnostic %d differs:\n  sequential: %s\n  parallel:   %s", i, seq[i], par[i])
		}
	}
}
