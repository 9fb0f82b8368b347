package pipeline_test

import (
	"context"
	"testing"

	"avfda/internal/pipeline"
	"avfda/internal/snapshot2"
	"avfda/internal/synth"
)

// TestStudyCRCGolden pins the v2 snapshot CRC of a fixed set of seeds, built
// the way bench and avserve build a study. Any change to Stages I-IV that
// alters a single byte of a consolidated study fails here; performance work
// on the pipeline must leave every CRC as it is.
func TestStudyCRCGolden(t *testing.T) {
	golden := []struct {
		seed int64
		crc  uint32
	}{
		{1, 0x7f796d2d},
		{2, 0xb5ceceea},
		{3, 0x24ad928e},
		{7, 0x38e30a79},
		{41, 0x38e716eb},
		{100, 0xae3a9441},
		{500, 0xcd40858f},
		{1000, 0xa0733dc5},
	}
	dir := t.TempDir()
	for _, g := range golden {
		cfg := pipeline.DefaultConfig()
		cfg.Synth = synth.Config{Seed: g.seed}
		cfg.OCR.Seed = g.seed
		res, err := pipeline.Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", g.seed, err)
		}
		crc, err := snapshot2.WriteSeed(dir, g.seed, res.DB)
		if err != nil {
			t.Fatalf("seed %d: write snapshot: %v", g.seed, err)
		}
		if crc != g.crc {
			t.Errorf("seed %d: study CRC %08x, want %08x", g.seed, crc, g.crc)
		}
	}
}
