package lint

// scopeExemptions records, per analyzer with a non-empty Scope, the
// internal/ packages deliberately left out of that scope and why. The
// meta-test in scope_test.go enumerates every real package under
// internal/ and fails when one is neither in the analyzer's Scope nor
// listed here, or when either names a package that does not exist —
// scope lists otherwise drift silently as packages are added
// (internal/serve was missing from mapiter for two generations) or
// deleted.
//
// An exemption is a recorded decision, not an escape hatch: each entry
// carries the reason the analyzer's invariant does not apply to that
// package. Analyzers with an empty Scope run everywhere and need no
// entries.
var scopeExemptions = map[string]map[string]string{
	"mapiter": mergeExempt(
		lintToolingExempt,
		exemptPkgs("map iteration never reaches an output or hash surface; "+
			"ordering is normalized downstream when results are consolidated",
			"internal/calib", "internal/mission", "internal/nlp",
			"internal/ocr", "internal/ontology", "internal/parse",
			"internal/pipeline", "internal/reliability", "internal/scandoc",
			"internal/schema", "internal/stpa", "internal/synth"),
	),
	"nondeterm": mergeExempt(
		lintToolingExempt,
		exemptPkgs("timing-centric by design: latency histograms and LRU "+
			"clocks read the wall clock as a feature, not a hazard",
			"internal/serve"),
		exemptPkgs("the pipeline is the legitimate wall-clock reader: it owns "+
			"StageTimings and stamps stage boundaries from outside the stages",
			"internal/pipeline"),
		exemptPkgs("already seed-disciplined: all randomness flows from the "+
			"per-document RNG (docRNG) and no clocks are read; the nd fixture "+
			"pins ocr as a non-stage package",
			"internal/ocr"),
		exemptPkgs("not a pipeline stage: no seed-derived randomness contract "+
			"and no code on the corpus-to-snapshot byte-identity path",
			"internal/calib", "internal/mission", "internal/ontology",
			"internal/query", "internal/reliability", "internal/report",
			"internal/scandoc", "internal/schema", "internal/stats",
			"internal/stpa"),
	),
	"ctxflow": mergeExempt(
		lintToolingExempt,
		exemptPkgs("no context.Context plumbing: the package API is "+
			"synchronous and context-free, so there is no in-scope context "+
			"to drop",
			"internal/calib", "internal/core", "internal/mission",
			"internal/nlp", "internal/ocr", "internal/ontology",
			"internal/parse", "internal/query", "internal/reliability",
			"internal/report", "internal/scandoc", "internal/schema",
			"internal/snapshot2", "internal/stats", "internal/stpa",
			"internal/synth"),
	),
}

// lintToolingExempt covers the analysis framework itself: it runs at
// development time, not in the shipped pipeline, and deliberately uses
// patterns (map iteration over diagnostics, wall-clock timings) the
// analyzers forbid in production packages.
var lintToolingExempt = exemptPkgs(
	"lint tooling: development-time code outside the pipeline's "+
		"determinism and lifecycle contracts",
	"internal/lint", "internal/lint/analysistest", "internal/lint/cfg")

// exemptPkgs builds one exemption block: every package in pkgs carries
// the same recorded reason.
func exemptPkgs(reason string, pkgs ...string) map[string]string {
	m := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		m[p] = reason
	}
	return m
}

// mergeExempt unions exemption blocks for one analyzer. Duplicate keys
// across blocks would mean two conflicting recorded reasons; the
// meta-test treats that as drift, so blocks must stay disjoint.
func mergeExempt(blocks ...map[string]string) map[string]string {
	out := map[string]string{}
	for _, b := range blocks {
		for k, v := range b {
			out[k] = v
		}
	}
	return out
}
