package lint

import "go/ast"

// globalRandFuncs are the math/rand package-level functions that draw from
// the process-global (unseeded or ambiently seeded) source. Constructors
// (New, NewSource, NewZipf) are allowed: they are how seed-derived
// generators get built.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
	// math/rand/v2 spellings, should the module ever migrate.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "UintN": true, "N": true,
}

// NonDeterm flags ambient nondeterminism inside pipeline-stage packages
// (internal/{parse,nlp,core,synth,snapshot2}): time.Now() reads and draws
// from the global math/rand source. Reproducibility is the paper's core
// contract — the same corpus and seed must yield the same consolidated
// failure DB — so stage code takes its randomness from a *rand.Rand derived
// from the study seed and its timestamps from callers (the pipeline records
// elapsed time in StageTimings, outside the stages).
var NonDeterm = &Analyzer{
	Name: "nondeterm",
	Doc: "flags time.Now() and global math/rand draws in pipeline-stage packages; " +
		"derive randomness from the study seed, inject clocks",
	// The pipeline-stage packages where all randomness must flow from the
	// study seed and all timing through injected clocks (the pipeline's
	// StageTimings): a stray wall-clock read or global-source draw makes
	// two runs of the same corpus diverge. The timing-centric serve
	// package is exempted in scope.go — wall-clock reads are its
	// feature, not a hazard.
	Scope: []string{
		"internal/parse",
		"internal/nlp",
		"internal/core",
		"internal/synth",
		"internal/snapshot2",
	},
	Run: runNonDeterm,
}

func runNonDeterm(pass *Pass) error {
	if !pass.InScope() {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch calleePkg(pass, call) {
			case "time":
				if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" || sel.Sel.Name == "Until" {
					pass.Reportf(call.Pos(), "time.%s in a pipeline-stage package: wall-clock reads make runs diverge; take timestamps from the caller (StageTimings owns timing)", sel.Sel.Name)
				}
			case "math/rand", "math/rand/v2":
				if globalRandFuncs[sel.Sel.Name] {
					pass.Reportf(call.Pos(), "rand.%s draws from the global source: all stage randomness must flow from the study seed via rand.New(rand.NewSource(seed))", sel.Sel.Name)
				}
			}
			return true
		})
	}
	return nil
}
