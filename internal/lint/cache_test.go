package lint_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"avfda/internal/lint"
)

// writeCacheModule lays out a three-package throwaway module for the
// invalidation tests: a imports b (so editing b must re-analyze both),
// c is independent and carries the suite's canonical errsubstr violation
// so cached findings are observably non-empty.
func writeCacheModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(rel, content string) {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module cachemod\n\ngo 1.22\n")
	write("b/b.go", "package b\n\nfunc Answer() int { return 42 }\n")
	write("a/a.go", "package a\n\nimport \"cachemod/b\"\n\nfunc Double() int { return 2 * b.Answer() }\n")
	write("c/c.go", `package c

import "strings"

func IsTimeout(err error) bool {
	return strings.Contains(err.Error(), "timeout")
}
`)
	return dir
}

// runCached is RunCachedTimed with the boilerplate folded away.
func runCached(t *testing.T, dir, cacheDir string, analyzers []*lint.Analyzer) ([]lint.Diagnostic, lint.CacheStats) {
	t.Helper()
	diags, _, stats, err := lint.RunCachedTimed(dir, cacheDir, 0, analyzers, "./...")
	if err != nil {
		t.Fatal(err)
	}
	return diags, stats
}

// TestCacheColdWarmIdentical pins the cache's core contract: a cold cached
// run, a fully-warm run, and a plain uncached run over the same tree all
// return identical diagnostics, and the warm run touches no package.
func TestCacheColdWarmIdentical(t *testing.T) {
	dir := writeCacheModule(t)
	cache := filepath.Join(dir, ".lintcache")
	analyzers := lint.All()

	pkgs, err := lint.LoadModuleParallel(dir, 0, "./...")
	if err != nil {
		t.Fatal(err)
	}
	uncached, _, err := lint.RunTimed(pkgs, analyzers, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(uncached) == 0 {
		t.Fatal("fixture module produced no findings; the test needs at least one")
	}

	cold, stats := runCached(t, dir, cache, analyzers)
	if stats.Hits != 0 || stats.Misses != 3 {
		t.Errorf("cold run: %d hits, %d misses, want 0/3", stats.Hits, stats.Misses)
	}
	if !reflect.DeepEqual(cold, uncached) {
		t.Errorf("cold cached diagnostics differ from uncached:\ncached:   %v\nuncached: %v", cold, uncached)
	}

	warm, stats := runCached(t, dir, cache, analyzers)
	if stats.Hits != 3 || stats.Misses != 0 {
		t.Errorf("warm run: %d hits, %d misses, want 3/0", stats.Hits, stats.Misses)
	}
	if !reflect.DeepEqual(warm, uncached) {
		t.Errorf("warm cached diagnostics differ from uncached:\ncached:   %v\nuncached: %v", warm, uncached)
	}
}

// TestCacheEditInvalidation pins the dependency-closure rule: editing one
// file re-analyzes exactly that package and its reverse dependencies,
// while unrelated packages keep hitting.
func TestCacheEditInvalidation(t *testing.T) {
	dir := writeCacheModule(t)
	cache := filepath.Join(dir, ".lintcache")
	analyzers := lint.All()

	runCached(t, dir, cache, analyzers) // populate
	if err := os.WriteFile(filepath.Join(dir, "b", "b.go"),
		[]byte("package b\n\nfunc Answer() int { return 43 }\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, stats := runCached(t, dir, cache, analyzers)
	wantMiss := []string{"cachemod/a", "cachemod/b"}
	if !reflect.DeepEqual(stats.MissPaths, wantMiss) {
		t.Errorf("after editing b: missed %v, want %v", stats.MissPaths, wantMiss)
	}
	if stats.Hits != 1 {
		t.Errorf("after editing b: %d hits, want 1 (cachemod/c untouched)", stats.Hits)
	}

	// The refreshed entries serve the next run in full.
	_, stats = runCached(t, dir, cache, analyzers)
	if stats.Hits != 3 || stats.Misses != 0 {
		t.Errorf("re-warm run: %d hits, %d misses, want 3/0", stats.Hits, stats.Misses)
	}
}

// TestCacheAnalyzerVersionBump pins that bumping an Analyzer.Version
// invalidates every entry: version participates in the key precisely so a
// changed analyzer can never serve stale findings.
func TestCacheAnalyzerVersionBump(t *testing.T) {
	dir := writeCacheModule(t)
	cache := filepath.Join(dir, ".lintcache")
	base := *lint.ErrSubstr
	analyzers := []*lint.Analyzer{&base}

	runCached(t, dir, cache, analyzers)
	if _, stats := runCached(t, dir, cache, analyzers); stats.Hits != 3 {
		t.Fatalf("warm run before bump: %d hits, want 3", stats.Hits)
	}

	bumped := *lint.ErrSubstr
	bumped.Version++
	_, stats := runCached(t, dir, cache, []*lint.Analyzer{&bumped})
	if stats.Misses != 3 || stats.Hits != 0 {
		t.Errorf("after version bump: %d hits, %d misses, want 0/3", stats.Hits, stats.Misses)
	}
}

// TestCacheCorruptEntryIsMiss pins the robustness contract: truncated or
// garbage entries are silently re-analyzed, never an error and never
// wrong output.
func TestCacheCorruptEntryIsMiss(t *testing.T) {
	dir := writeCacheModule(t)
	cache := filepath.Join(dir, ".lintcache")
	analyzers := lint.All()

	want, _ := runCached(t, dir, cache, analyzers)
	ents, err := os.ReadDir(cache)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".json" {
			continue
		}
		if err := os.WriteFile(filepath.Join(cache, e.Name()), []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}
	if corrupted != 3 {
		t.Fatalf("corrupted %d entries, want 3", corrupted)
	}

	got, stats := runCached(t, dir, cache, analyzers)
	if stats.Misses != 3 {
		t.Errorf("corrupt entries: %d misses, want 3", stats.Misses)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("diagnostics after corruption differ:\ngot:  %v\nwant: %v", got, want)
	}
}

// lintRepoRoot walks up to the module root so the whole-repo cache test and
// benchmark can run the cache over the real repository.
func lintRepoRoot(t testing.TB) string {
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

// TestCacheRepoWarmReplaysCold pins the cache's correctness over the real
// repository: the cold run that populates it hits nothing, the warm run
// over the unchanged tree misses nothing, and the warm diagnostics are
// exactly the cold ones. How much faster the warm run is belongs to
// BenchmarkCacheRepo, not to a wall-clock assertion here.
func TestCacheRepoWarmReplaysCold(t *testing.T) {
	if testing.Short() {
		t.Skip("lints the whole repository twice; skipped in -short mode")
	}
	root := lintRepoRoot(t)
	cache := t.TempDir()
	analyzers := lint.All()

	coldDiags, _, coldStats, err := lint.RunCachedTimed(root, cache, 0, analyzers, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.Hits != 0 {
		t.Fatalf("cold run had %d hits, want 0", coldStats.Hits)
	}
	warmDiags, _, warmStats, err := lint.RunCachedTimed(root, cache, 0, analyzers, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.Misses != 0 {
		t.Fatalf("warm run missed %v, want none", warmStats.MissPaths)
	}
	if !reflect.DeepEqual(warmDiags, coldDiags) {
		t.Errorf("warm diagnostics differ from cold:\nwarm: %v\ncold: %v", warmDiags, coldDiags)
	}
}

// BenchmarkCacheRepo measures what the findings cache buys over the real
// repository: each iteration lints the tree cold into a fresh cache, then
// warm from it. The cold/warm wall-clock ratio is reported as a metric
// (the cache was built to keep it at 5x or more); ns/op is the pair.
func BenchmarkCacheRepo(b *testing.B) {
	root := lintRepoRoot(b)
	analyzers := lint.All()
	var cold, warm time.Duration
	for i := 0; i < b.N; i++ {
		cache := b.TempDir()
		start := time.Now()
		if _, _, _, err := lint.RunCachedTimed(root, cache, 0, analyzers, "./..."); err != nil {
			b.Fatal(err)
		}
		mid := time.Now()
		if _, _, _, err := lint.RunCachedTimed(root, cache, 0, analyzers, "./..."); err != nil {
			b.Fatal(err)
		}
		cold += mid.Sub(start)
		warm += time.Since(mid)
	}
	b.ReportMetric(float64(cold)/float64(warm), "cold/warm")
}
