package query

import (
	"errors"

	"avfda/internal/core"
	"avfda/internal/schema"
)

// ReliabilityMetric is one manufacturer's reliability summary for the
// serving layer: fleet exposure plus the paper's DPM/DPA/APM chain
// (Tables VI-VII). Fields that the data cannot support (no accidents, no
// per-car mileage) are negative, matching the core package's convention
// for the paper's dashes.
type ReliabilityMetric struct {
	Manufacturer string  `json:"manufacturer"`
	Miles        float64 `json:"miles"`
	Events       int     `json:"disengagements"`
	Accidents    int     `json:"accidents"`
	// DPM is the fleet-level disengagements-per-mile rate (Events/Miles);
	// negative when no miles were reported.
	DPM float64 `json:"dpm"`
	// MedianDPM is the Table VII median per-car DPM; negative when no
	// vehicle-attributed mileage exists.
	MedianDPM float64 `json:"medianDPM"`
	// DPA is disengagements per accident (Table VI); negative without
	// accidents or without disengagements.
	DPA float64 `json:"dpa"`
	// MedianAPM is the Table VII accidents-per-mile estimate
	// (MedianDPM/DPA); negative when either input is absent.
	MedianAPM float64 `json:"medianAPM"`
	// RelToHuman is MedianAPM relative to the human-driver accident rate;
	// negative when MedianAPM is absent.
	RelToHuman float64 `json:"relToHuman"`
}

// Reliability computes the per-manufacturer reliability metrics for every
// manufacturer present in the study, in the paper's canonical order, from
// the study's exposure summary.
func Reliability(x *core.Exposure) ([]ReliabilityMetric, error) {
	if x == nil {
		return nil, errors.New("query: nil exposure")
	}
	dpaBy := make(map[schema.Manufacturer]float64)
	for _, r := range x.AccidentSummary() {
		dpaBy[r.Manufacturer] = r.DPA
	}
	rel, err := x.ReliabilityVsHuman()
	if err != nil {
		return nil, err
	}
	relBy := make(map[schema.Manufacturer]core.ReliabilityRow, len(rel))
	for _, r := range rel {
		relBy[r.Manufacturer] = r
	}
	var out []ReliabilityMetric
	for _, m := range x.Makers {
		row := ReliabilityMetric{
			Manufacturer: string(m.Manufacturer),
			Miles:        m.Miles,
			Events:       m.Events,
			Accidents:    m.Accidents,
			DPM:          -1,
			MedianDPM:    -1,
			DPA:          -1,
			MedianAPM:    -1,
			RelToHuman:   -1,
		}
		if row.Miles > 0 {
			row.DPM = float64(row.Events) / row.Miles
		}
		if dpa, ok := dpaBy[m.Manufacturer]; ok {
			row.DPA = dpa
		}
		if r, ok := relBy[m.Manufacturer]; ok {
			row.MedianDPM = r.MedianDPM
			row.MedianAPM = r.MedianAPM
			row.RelToHuman = r.RelToHuman
		}
		out = append(out, row)
	}
	return out, nil
}

// Reliability reports the engine's per-manufacturer reliability metrics
// from the exposure summary its View sums from the columns; no table is
// decoded.
func (e *Engine) Reliability() ([]ReliabilityMetric, error) {
	x, err := e.v.Exposure()
	if err != nil {
		return nil, err
	}
	return Reliability(x)
}
