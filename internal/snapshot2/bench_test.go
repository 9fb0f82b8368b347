package snapshot2_test

import (
	"context"
	"testing"

	"avfda/internal/core"
	"avfda/internal/pipeline"
	"avfda/internal/query"
	"avfda/internal/snapshot2"
	"avfda/internal/synth"
)

// buildStudy runs the full Stage I-IV pipeline for a seed — the cost the
// snapshot tier exists to avoid.
func buildStudy(tb testing.TB, seed int64) *core.DB {
	tb.Helper()
	cfg := pipeline.DefaultConfig()
	cfg.Synth = synth.Config{Seed: seed}
	cfg.OCR.Seed = seed
	res, err := pipeline.Run(context.Background(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return res.DB
}

// openV2 is the cold-open path avserve's v2 tier takes: map, validate, and
// stand a query engine directly on the columns — no deserialization.
func openV2(tb testing.TB, dir string, seed int64) (*snapshot2.View, *query.Engine) {
	tb.Helper()
	v, err := snapshot2.OpenSeed(dir, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return v, query.NewFromView(v)
}

// BenchmarkSnapshotV2Load measures the v2 warm-start path on the
// calibrated seed-1 study: map the file, checksum + structural validation,
// and engine construction over the raw columns. The snapshot's byte size is
// reported alongside ns/op for the perf-trajectory artifact.
func BenchmarkSnapshotV2Load(b *testing.B) {
	dir := b.TempDir()
	if _, err := snapshot2.WriteSeed(dir, 1, buildStudy(b, 1)); err != nil {
		b.Fatal(err)
	}
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := openV2(b, dir, 1)
		size = v.Size()
		v.Close()
	}
	b.ReportMetric(float64(size), "bytes")
}

// BenchmarkSnapshotV2Write measures the export cost avpipe -snapshot-out
// and the cache's v2 write-through tier pay per study.
func BenchmarkSnapshotV2Write(b *testing.B) {
	db := buildStudy(b, 1)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapshot2.WriteSeed(dir, 1, db); err != nil {
			b.Fatal(err)
		}
	}
}
