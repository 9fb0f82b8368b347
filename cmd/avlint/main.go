// Command avlint runs the avfda analyzer suite (internal/lint) over Go
// packages and reports violations of the toolkit's determinism,
// typed-error, and concurrency/handler-safety invariants.
//
// Usage:
//
//	avlint [-C dir] [-disable name,name] [-list] [-json] [-gha] [packages]
//
// With no package patterns it lints ./... from the current directory. Each
// diagnostic prints as
//
//	path/file.go:line:col: [analyzer] message
//
// -json switches stdout to a machine-readable JSON object with a
// "findings" array, and -gha to GitHub Actions workflow commands
// (::error file=...) so CI annotates the offending lines in pull requests.
// Analysis uses GOMAXPROCS workers; wall time is reported on stderr.
//
// Exit status is 0 when the tree is clean, 1 when diagnostics were
// reported, and 2 when loading or analysis itself failed — a package that
// fails to type-check is always an error, never silently skipped. Per-line
// suppression uses `//lint:allow <analyzer> <reason>` on the flagged line
// or the line above; the reason is mandatory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"avfda/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main, factored for testing: it parses flags, selects analyzers,
// lints, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("avlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	disable := fs.String("disable", "", "comma-separated analyzer names to skip")
	list := fs.Bool("list", false, "print the analyzers and exit")
	dir := fs.String("C", ".", "run as if started in this directory")
	jsonOut := fs.Bool("json", false, "print findings as a JSON object")
	gha := fs.Bool("gha", false, "print findings as GitHub Actions ::error annotations")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-20s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := selectAnalyzers(*disable)
	if err != nil {
		fmt.Fprintln(stderr, "avlint:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	start := time.Now()
	pkgs, err := lint.LoadModule(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "avlint:", err)
		return 2
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "avlint:", err)
		return 2
	}
	elapsed := time.Since(start)

	cwd, _ := os.Getwd()
	for i := range diags {
		diags[i].Pos.Filename = relativize(cwd, diags[i].Pos.Filename)
	}
	switch {
	case *jsonOut:
		if err := writeJSON(stdout, diags); err != nil {
			fmt.Fprintln(stderr, "avlint:", err)
			return 2
		}
	case *gha:
		writeAnnotations(stdout, diags)
	default:
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s: [%s] %s\n", d.Pos, d.Analyzer, d.Message)
		}
	}
	fmt.Fprintf(stderr, "avlint: %d package(s), %d analyzer(s) in %s\n",
		len(pkgs), len(analyzers), elapsed.Round(time.Millisecond))
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "avlint: %d violation(s)\n", len(diags))
		return 1
	}
	return 0
}

// relativize shortens filename against cwd when it lies beneath it.
func relativize(cwd, filename string) string {
	if cwd == "" {
		return filename
	}
	if rel, err := filepath.Rel(cwd, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return filename
}

// jsonFinding is one diagnostic in -json output. The shape is stable: CI
// tooling parses it.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonReport is the -json stdout payload. "findings" is always present
// (empty array when clean), so consumers can unmarshal unconditionally.
type jsonReport struct {
	Findings []jsonFinding `json:"findings"`
}

// writeJSON renders the findings as one JSON object.
func writeJSON(w io.Writer, diags []lint.Diagnostic) error {
	findings := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, jsonFinding{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonReport{Findings: findings})
}

// writeAnnotations renders findings as GitHub Actions workflow commands so
// the lint job annotates the offending lines in the PR diff view. Message
// text is escaped per the workflow-command rules (%, CR, LF).
func writeAnnotations(w io.Writer, diags []lint.Diagnostic) {
	for _, d := range diags {
		fmt.Fprintf(w, "::error file=%s,line=%d,col=%d,title=avlint %s::%s\n",
			escapeProperty(d.Pos.Filename), d.Pos.Line, d.Pos.Column,
			escapeProperty(d.Analyzer), escapeData(d.Message))
	}
}

// escapeData escapes a workflow-command message value.
func escapeData(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// escapeProperty escapes a workflow-command property value.
func escapeProperty(s string) string {
	s = escapeData(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	s = strings.ReplaceAll(s, ",", "%2C")
	return s
}

// selectAnalyzers returns the suite minus the comma-separated disabled
// names, erroring on names that do not exist so a typo cannot silently
// disable nothing.
func selectAnalyzers(disable string) ([]*lint.Analyzer, error) {
	disabled := map[string]bool{}
	if disable != "" {
		names := strings.Split(disable, ",")
		if _, err := lint.ByName(names); err != nil {
			return nil, err
		}
		for _, n := range names {
			disabled[n] = true
		}
	}
	var out []*lint.Analyzer
	for _, a := range lint.All() {
		if !disabled[a.Name] {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("all analyzers disabled")
	}
	return out, nil
}
