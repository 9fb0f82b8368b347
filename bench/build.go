package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"avfda/internal/core"
	"avfda/internal/nlp"
	"avfda/internal/ocr"
	"avfda/internal/ontology"
	"avfda/internal/parse"
	"avfda/internal/pipeline"
	"avfda/internal/query"
	"avfda/internal/scandoc"
	"avfda/internal/schema"
	"avfda/internal/serve"
	"avfda/internal/snapshot2"
	"avfda/internal/synth"
)

// studyConfig is the pipeline configuration avserve builds a seed with.
func studyConfig(seed int64) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.Synth = synth.Config{Seed: seed}
	cfg.OCR.Seed = seed
	return cfg
}

// buildStudy does what avserve does on a cache miss: pipeline.Run on all
// cores, query.New, then the v2 write-through. It returns the pipeline
// result and the written snapshot's CRC.
func buildStudy(ctx context.Context, dir string, seed int64) (*pipeline.Result, uint32, error) {
	res, err := pipeline.Run(ctx, studyConfig(seed))
	if err != nil {
		return nil, 0, fmt.Errorf("build seed %d: %w", seed, err)
	}
	if _, err := query.New(res.DB); err != nil {
		return nil, 0, fmt.Errorf("index seed %d: %w", seed, err)
	}
	crc, err := snapshot2.WriteSeed(dir, seed, res.DB)
	if err != nil {
		return nil, 0, fmt.Errorf("write seed %d: %w", seed, err)
	}
	return res, crc, nil
}

// studyBuildFunc builds a study in process exactly as avserve's builder
// does.
func studyBuildFunc(seed int64) (*serve.Study, error) {
	// Builds outlive the request that started them, as in avserve.
	res, err := pipeline.Run(context.Background(), studyConfig(seed))
	if err != nil {
		return nil, err
	}
	engine, err := query.New(res.DB)
	if err != nil {
		return nil, err
	}
	return &serve.Study{DB: res.DB, Engine: engine}, nil
}

// buildServer returns an in-process serve.Server over fresh builds with no
// snapshot tier: the reference the served answers are checked against.
func buildServer() (*serve.Server, error) {
	return serve.New(serve.Config{Build: studyBuildFunc})
}

// Paper-level output checks on a built study.
const (
	wantAccidents      = 42
	wantDisengagements = 5328
	disengagementSlack = 0.10
	minTagAccuracy     = 0.99
)

// checkStudy fails when a build's output leaves the paper's numbers.
func checkStudy(seed int64, res *pipeline.Result) error {
	if n := len(res.DB.Accidents); n != wantAccidents {
		return fmt.Errorf("seed %d: %d accidents, want %d", seed, n, wantAccidents)
	}
	n := float64(len(res.DB.Events))
	if math.Abs(n-wantDisengagements) > disengagementSlack*wantDisengagements {
		return fmt.Errorf("seed %d: %.0f disengagements, want %d ±%.0f%%", seed, n, wantDisengagements, 100*disengagementSlack)
	}
	if acc := res.Accuracy.TagAccuracy(); acc < minTagAccuracy {
		return fmt.Errorf("seed %d: tag accuracy %.4f, want >= %.2f", seed, acc, minTagAccuracy)
	}
	return nil
}

// checkSnapshot re-opens a written snapshot and compares its CRC with the
// one the write returned.
func checkSnapshot(dir string, seed int64, crc uint32) error {
	v, err := snapshot2.OpenSeed(dir, seed)
	if err != nil {
		return fmt.Errorf("re-open snapshot %d: %w", seed, err)
	}
	defer v.Close()
	if got := v.Checksum(); got != crc {
		return fmt.Errorf("snapshot %d re-opened with CRC %08x, written with %08x", seed, got, crc)
	}
	return nil
}

// writeFixtures builds and writes the snapshots a serving workload starts
// from, checking every study and snapshot on the way. Fixture time is in
// no metric, so two studies build at once: one pipeline.Run leaves about a
// third of two cores idle.
func writeFixtures(ctx context.Context, dir string, seeds []int64) error {
	workers := min(2, runtime.NumCPU())
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(seeds) && errs[w] == nil; i += workers {
				errs[w] = writeFixture(ctx, dir, seeds[i])
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func writeFixture(ctx context.Context, dir string, seed int64) error {
	res, crc, err := buildStudy(ctx, dir, seed)
	if err != nil {
		return err
	}
	if err := checkStudy(seed, res); err != nil {
		return err
	}
	return checkSnapshot(dir, seed, crc)
}

// Stage names of the build replica, in pipeline order. The first seven
// are the stages pipeline.Run times itself; the last three are what
// avserve adds on a miss.
var replicaStages = []string{
	"synth", "scandoc", "ocr", "parse", "nlp.expand", "nlp.classify", "core.build",
	"query.index", "snapshot2.encode", "snapshot2.write",
}

// pipelineStages is how many replicaStages pipeline.Run covers.
const pipelineStages = 7

// replicaResult is one seed's stage-by-stage build.
type replicaResult struct {
	stageNS     [10]int64   // duration per replicaStages entry
	allocBytes  [10]float64 // heap bytes allocated per stage
	runNS       int64       // pipeline.Run wall time for the same seed
	crc, runCRC uint32
	defectRate  float64
	tagAcc      float64
	phrases     int
	bytes       int
	events      int
}

// heapAllocs reads the process's cumulative heap allocation in bytes.
func heapAllocs() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// replicate builds seed stage by stage through each module's public
// functions, as pipeline.RunOnCorpus sequences them, timing and counting
// allocations per stage under one root span. It also runs pipeline.Run on
// the same seed — after the replica, or before it with runFirst, so that
// alternating the order cancels drift in the machine's speed — for the
// wall time and the snapshot CRC the replica must match. Snapshots go to
// dir (replica) and runDir (pipeline.Run).
func replicate(ctx context.Context, tr *tracer, dir, runDir string, seed int64, runFirst bool) (*replicaResult, error) {
	cfg := studyConfig(seed)
	out := &replicaResult{}
	runPipeline := func() error {
		// Both builds of the seed start from a freshly collected heap, so
		// neither pays to collect the other's garbage.
		runtime.GC()
		var res *pipeline.Result
		var err error
		d := tr.timed(0, "pipeline.run", "build", seed, func() { res, err = pipeline.Run(ctx, cfg) })
		if err != nil {
			return fmt.Errorf("build seed %d: %w", seed, err)
		}
		out.runNS = d.Nanoseconds()
		if err := checkStudy(seed, res); err != nil {
			return err
		}
		if out.runCRC, err = snapshot2.WriteSeed(runDir, seed, res.DB); err != nil {
			return fmt.Errorf("write seed %d: %w", seed, err)
		}
		out.tagAcc = res.Accuracy.TagAccuracy()
		return nil
	}
	if runFirst {
		if err := runPipeline(); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	root := tr.reserve()
	rootStart := time.Now()
	stage := func(i int, f func() error) error {
		a0 := heapAllocs()
		var err error
		d := tr.timed(root, replicaStages[i], "build", seed, func() { err = f() })
		out.stageNS[i] = d.Nanoseconds()
		out.allocBytes[i] = heapAllocs() - a0
		return err
	}

	var truth *synth.Truth
	var docs []scandoc.Document
	var inputs []parse.Input
	var recovered *schema.Corpus
	var dict *nlp.Dictionary
	var causes []string
	var tags []ontology.Tag
	var db *core.DB
	var data []byte
	var report *parse.Report
	steps := []func() error{
		func() (err error) { truth, err = synth.Generate(cfg.Synth); return err },
		func() error { docs = scandoc.Render(&truth.Corpus); return nil },
		// Each step drops what no later step reads, and keeps what
		// pipeline.Run keeps to the end because it returns it (the parsed
		// corpus, the parse report, the dictionary): the live heap, and so
		// the garbage collector's work in each stage, is the same as in
		// pipeline.Run.
		func() error {
			engine, err := ocr.NewEngine(cfg.OCR)
			if err != nil {
				return err
			}
			decoded, err := engine.DecodeAllConcurrent(ctx, docs, cfg.Workers)
			if err != nil {
				return err
			}
			inputs = make([]parse.Input, 0, len(decoded))
			for _, d := range decoded {
				inputs = append(inputs, parse.Input{DocID: d.DocID, Lines: d.Lines})
			}
			docs = nil
			return nil
		},
		func() error {
			corpus, rep, err := parse.ParseConcurrent(inputs, cfg.Workers)
			if err != nil {
				return err
			}
			recovered, report, inputs = corpus, rep, nil
			return nil
		},
		func() (err error) {
			causes = make([]string, len(recovered.Disengagements))
			for i, d := range recovered.Disengagements {
				causes[i] = d.Cause
			}
			dict, _, err = nlp.Expand(nlp.SeedDictionary(), causes, cfg.NLP, cfg.Expand)
			return err
		},
		func() error {
			cls, err := nlp.NewClassifier(dict, cfg.NLP)
			if err != nil {
				return err
			}
			classified := cls.ClassifyAllConcurrent(causes, cfg.Workers)
			tags = make([]ontology.Tag, len(classified))
			for i, r := range classified {
				tags[i] = r.Tag
			}
			causes = nil
			return nil
		},
		func() (err error) {
			db, err = core.BuildWithTags(recovered, tags)
			tags = nil
			return err
		},
		func() error { _, err := query.New(db); return err },
		func() (err error) { data, err = snapshot2.Encode(db); return err },
		func() error { return snapshot2.WriteSeedBytes(dir, seed, data) },
	}
	for i, f := range steps {
		if err := stage(i, f); err != nil {
			return nil, fmt.Errorf("replica seed %d stage %s: %w", seed, replicaStages[i], err)
		}
	}
	out.phrases, out.defectRate = dict.Size(), report.DefectRate()
	tr.put(span{ID: root, Name: "replica.study", Op: "build", Seed: seed,
		Sched: tr.ns(rootStart), Start: tr.ns(rootStart), End: tr.ns(time.Now())})

	v, err := snapshot2.OpenSeed(dir, seed)
	if err != nil {
		return nil, fmt.Errorf("replica seed %d: re-open: %w", seed, err)
	}
	out.crc = v.Checksum()
	v.Close()
	out.bytes = len(data)
	out.events = len(db.Events)

	if !runFirst {
		if err := runPipeline(); err != nil {
			return nil, err
		}
	}
	if out.crc != out.runCRC {
		return nil, fmt.Errorf("replica seed %d: snapshot CRC %08x, pipeline.Run wrote %08x", seed, out.crc, out.runCRC)
	}
	return out, nil
}
