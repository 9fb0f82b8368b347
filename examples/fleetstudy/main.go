// Fleetstudy: a per-manufacturer reliability deep dive using the public
// database API — the workflow a fleet-safety analyst would run on their
// own filings: per-car DPM spread, temporal trend, accident exposure, and
// a Kalra–Paddock read on how trustworthy each accident-rate estimate is.
package main

import (
	"fmt"
	"log"
	"sort"

	"avfda"
)

func main() {
	study, err := avfda.NewStudy(avfda.Options{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	db := study.DB()

	fmt.Println("== Fleet reliability deep dive ==")
	fmt.Println()

	// Rank manufacturers by median per-car DPM (Fig. 4 data).
	dists := db.DPMPerCar()
	sort.Slice(dists, func(i, j int) bool {
		return dists[i].Box.Median < dists[j].Box.Median
	})
	fmt.Println("per-car disengagements/mile (best to worst):")
	for rank, d := range dists {
		fmt.Printf("  %d. %-14s median %.3g  IQR [%.3g, %.3g]  cars %d\n",
			rank+1, d.Manufacturer, d.Box.Median, d.Box.Q1, d.Box.Q3, d.Box.N)
	}
	fmt.Println()

	// Improvement trends (Fig. 9): who is actually getting better?
	trends, err := db.DPMTrend()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("improvement trend (log-log slope of DPM vs cumulative miles):")
	for _, tr := range trends {
		if !tr.FitOK {
			continue
		}
		verdict := "improving"
		if tr.Fit.Slope >= 0 {
			verdict = "NOT improving"
		}
		fmt.Printf("  %-14s slope %+.3f (R2 %.2f) — %s\n",
			tr.Manufacturer, tr.Fit.Slope, tr.Fit.R2, verdict)
	}
	fmt.Println()

	// Accident exposure and estimate quality (Tables VI/VII).
	rel, err := db.Exposure().ReliabilityVsHuman()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("accident-rate estimates vs human drivers (2e-6/mile):")
	for _, r := range rel {
		if r.MedianAPM < 0 {
			fmt.Printf("  %-14s no accidents reported — APM not estimable\n", r.Manufacturer)
			continue
		}
		confidence := "estimate NOT trustworthy (too few accidents)"
		if r.EstimateConfidence >= 0.9 {
			confidence = "estimate made at >90% confidence"
		}
		fmt.Printf("  %-14s APM %.3g (%.0fx human) — %s\n",
			r.Manufacturer, r.MedianAPM, r.RelToHuman, confidence)
	}
	fmt.Println()

	// Where do collisions actually happen? (Fig. 12 data.)
	speeds, err := db.AccidentSpeeds()
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range speeds {
		fmt.Printf("%-22s n=%2d  exponential mean %.1f mph\n",
			s.Label+":", len(s.Values), 1/s.Fit.Lambda)
	}
	fmt.Printf("collisions under 10 mph relative speed: %.0f%%\n",
		100*db.RelativeSpeedUnder(10))
}
