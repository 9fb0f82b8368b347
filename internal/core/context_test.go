package core

import (
	"math"
	"testing"

	"avfda/internal/schema"
)

func TestRoadBreakdown(t *testing.T) {
	db := truthDB(t)
	risks, unknown := db.RoadBreakdown()
	if len(risks) < 5 {
		t.Fatalf("road types = %d", len(risks))
	}
	var eventShare float64
	for _, r := range risks {
		eventShare += r.EventShare
		if r.RelativeRisk <= 0 {
			t.Errorf("%s: relative risk %.2f", r.Road, r.RelativeRisk)
		}
	}
	if math.Abs(eventShare-1) > 1e-9 {
		t.Errorf("event shares sum to %.4f", eventShare)
	}
	// Synth draws event roads from the mileage mix, so relative risk ~1
	// for the major road types.
	for _, r := range risks {
		if r.Road == schema.RoadCityStreet && (r.RelativeRisk < 0.8 || r.RelativeRisk > 1.25) {
			t.Errorf("city-street relative risk %.2f, want ~1", r.RelativeRisk)
		}
	}
	if unknown < 0 {
		t.Error("negative unknown count")
	}
}

func TestWeatherBreakdown(t *testing.T) {
	db := truthDB(t)
	wx := db.WeatherBreakdown()
	if wx[schema.WeatherSunny] <= wx[schema.WeatherRaining] {
		t.Error("California weather mix inverted")
	}
	total := 0
	for _, n := range wx {
		total += n
	}
	if total != len(db.Events) {
		t.Errorf("weather counts sum to %d of %d", total, len(db.Events))
	}
}

func TestUnderreportingSensitivity(t *testing.T) {
	db := truthDB(t)
	rows, err := db.UnderreportingSensitivity([]float64{0, 0.25, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// u=0 reproduces the observed rates.
	base := rows[0]
	wantDPM := float64(len(db.Events)) / 1116605.0
	if math.Abs(base.TrueDPM-wantDPM)/wantDPM > 1e-6 {
		t.Errorf("u=0 DPM %.4g, want %.4g", base.TrueDPM, wantDPM)
	}
	// Rates scale by 1/(1-u) and are monotone in u.
	if math.Abs(rows[1].TrueDPM-base.TrueDPM/0.75)/base.TrueDPM > 1e-9 {
		t.Errorf("u=0.25 scaling wrong: %g", rows[1].TrueDPM)
	}
	if !(rows[0].RelToHuman < rows[1].RelToHuman && rows[1].RelToHuman < rows[2].RelToHuman) {
		t.Error("rel-to-human not monotone in underreporting")
	}
	// Even at u=0 the fleet is ~19x worse than humans (42/1.1M vs 2e-6).
	if base.RelToHuman < 10 || base.RelToHuman > 30 {
		t.Errorf("corpus-wide rel-to-human %.1f", base.RelToHuman)
	}
	if _, err := db.UnderreportingSensitivity([]float64{1}); err == nil {
		t.Error("u=1: want error")
	}
	if _, err := db.UnderreportingSensitivity([]float64{-0.1}); err == nil {
		t.Error("u<0: want error")
	}
	empty := &DB{}
	if _, err := empty.UnderreportingSensitivity([]float64{0}); err == nil {
		t.Error("empty db: want error")
	}
}

func TestEmptyDBAnalysesDegradeGracefully(t *testing.T) {
	db := &DB{}
	if rows := db.Exposure().FleetSummary(); len(rows) != 0 {
		t.Error("empty fleet summary should be empty")
	}
	if rows := db.Exposure().CategoryBreakdown(); len(rows) != 0 {
		t.Error("empty category breakdown should be empty")
	}
	s := db.Exposure().OverallCategoryShares()
	if s.MLDesign != 0 {
		t.Error("empty shares should be zero")
	}
	if rows := db.Exposure().ModalityBreakdown(); len(rows) != 0 {
		t.Error("empty modality breakdown should be empty")
	}
	if rows := db.Exposure().AccidentSummary(); len(rows) != 0 {
		t.Error("empty accident summary should be empty")
	}
	if rows, err := db.Exposure().ReliabilityVsHuman(); err != nil || len(rows) != 0 {
		t.Errorf("empty reliability: %v, %d rows", err, len(rows))
	}
	if dists := db.DPMPerCar(); len(dists) != 0 {
		t.Error("empty DPM per car should be empty")
	}
	if _, err := db.PooledLogCorrelation(); err == nil {
		t.Error("empty pooled correlation should error")
	}
	if rows := db.ReactionTimes(); len(rows) != 0 {
		t.Error("empty reaction times should be empty")
	}
	if _, err := db.MeanReaction(3600); err == nil {
		t.Error("empty mean reaction should error")
	}
	if _, err := db.AccidentSpeeds(); err != nil {
		t.Errorf("empty accident speeds: %v", err)
	}
	if frac := db.RelativeSpeedUnder(10); frac != 0 {
		t.Error("empty relative speed fraction should be 0")
	}
	if _, err := db.AccidentMilesTrend(); err == nil {
		t.Error("empty accident trend should error (n<3)")
	}
	if risks, unknown := db.RoadBreakdown(); len(risks) != 0 || unknown != 0 {
		t.Error("empty road breakdown should be empty")
	}
	if agg := db.Aggregates(); agg.MilesPerDisengagement != 0 {
		t.Error("empty aggregates should be zero")
	}
	if dists := db.MilesBetweenDisengagements(); len(dists) != 0 {
		t.Error("empty MBD should be empty")
	}
}
