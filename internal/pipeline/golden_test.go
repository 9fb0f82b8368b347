package pipeline_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"avfda/internal/pipeline"
	"avfda/internal/query"
	"avfda/internal/synth"
)

// TestStudyCRCGolden pins two digests of a fixed set of seeds' studies,
// built the way bench and avserve build a study: the v2 snapshot CRC, and a
// SHA-256 of the events and accidents CSV exports. Any change to Stages
// I-IV that alters a single byte of a consolidated study fails the CRC, and
// one that alters an event or accident fails the digest too. The CSV
// exports name no part of the snapshot layout, so a format change that
// keeps every value moves only the CRCs while the digests show the study
// itself did not move.
func TestStudyCRCGolden(t *testing.T) {
	golden := []struct {
		seed    int64
		crc     uint32
		content string
	}{
		{1, 0xea4536d1, "d94b80f6d112b37e379f607fe539cbc12e18c932c5f94849ebff5ff2f9a2cbea"},
		{2, 0x69a4aebb, "90806de8ea01fc14b75c6f1061ff22cb774121ffa65d416fc1d168c169199590"},
		{3, 0x3f2ad055, "04c7e36bce5804836c4e6edbb440ed8d055557de9d9588c0f604cfaed26fe9dc"},
		{7, 0x4c687095, "95f11ea1c35119e49aa51422e163d6a2603bc1d5f00c319758e8fdbb9957d570"},
		{41, 0xf248ab61, "b5d0a39228a8f6ed8354f61fc0e24e86310d75752c1cb1b50da6a5835179a7a7"},
		{100, 0x0f0c7cb3, "310bb4247af4ec00190315972037811772dc20a6d7b856dfbb6739ccb92124d2"},
		{500, 0x7452cf2f, "4a66c09aad5f5b4a948e95a5215617f3e6e4186fa95775a8afa90470edd4ea9a"},
		{1000, 0x28dfc6a7, "34b24aa9d24c57ba514fe74a89dabf236b4f9caed5230103c9f8ef491bdd10f0"},
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
		eng, err := query.New(res.DB)
		if err != nil {
			t.Fatalf("seed %d: %v", g.seed, err)
		}
		crc, err := eng.WriteSeed(dir, g.seed)
		if err != nil {
			t.Fatalf("seed %d: write snapshot: %v", g.seed, err)
		}
		if crc != g.crc {
			t.Errorf("seed %d: study CRC %08x, want %08x", g.seed, crc, g.crc)
		}
		if got := contentDigest(t, eng); got != g.content {
			t.Errorf("seed %d: study content digest %s, want %s", g.seed, got, g.content)
		}
	}
}

// contentDigest hashes the study's events CSV export, then its accidents
// CSV export.
func contentDigest(t *testing.T, eng *query.Engine) string {
	t.Helper()
	h := sha256.New()
	if err := eng.WriteEventsCSV(h, query.Filter{}); err != nil {
		t.Fatal(err)
	}
	if err := eng.WriteAccidentsCSV(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}
