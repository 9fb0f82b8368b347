// Customanalysis: answer a question the paper never asked, with one loop
// over the consolidated failure database's events — do weekday and
// weekend disengagements look different? Are morning faults different from
// afternoon ones? This is the template for exploring your own hypotheses
// on the corpus.
package main

import (
	"fmt"
	"log"
	"time"

	"avfda"
	"avfda/internal/ontology"
	"avfda/internal/stats"
)

// columns names the fields of each event, as the events CSV export heads
// them.
var columns = []string{"manufacturer", "vehicle", "reportYear", "time", "cause",
	"tag", "category", "modality", "road", "weather", "reactionSeconds"}

func main() {
	study, err := avfda.NewStudy(avfda.Options{Seed: 17})
	if err != nil {
		log.Fatal(err)
	}
	events := study.DB().Events

	fmt.Println("== Custom analysis over the events dataframe ==")
	fmt.Printf("events: %d rows x %d columns %v\n\n", len(events), len(columns), columns)

	// Classify each event by day and period of day, keeping the reported
	// reaction times (those in [0, 3600) seconds) per day class and the
	// ML/Design count per period.
	var dayClasses []string // in order of first appearance
	reactions := make(map[string][]float64)
	type mix struct{ events, mlDesign int }
	periods := make(map[string]mix)
	for _, e := range events {
		day := "weekday"
		if wd := e.Time.Weekday(); wd == time.Saturday || wd == time.Sunday {
			day = "weekend"
		}
		if _, seen := reactions[day]; !seen {
			dayClasses = append(dayClasses, day)
			reactions[day] = nil
		}
		if r := e.ReactionSeconds; r >= 0 && r < 3600 {
			reactions[day] = append(reactions[day], r)
		}
		period := "morning"
		if e.Time.Hour() >= 12 {
			period = "afternoon"
		}
		m := periods[period]
		m.events++
		if e.Category == ontology.CategoryMLDesign {
			m.mlDesign++
		}
		periods[period] = m
	}

	// Mean reaction time per day class.
	fmt.Println("mean driver reaction by day class:")
	fmt.Println("dayClass\tmeanReaction")
	for _, day := range dayClasses {
		var mean float64
		if rs := reactions[day]; len(rs) > 0 {
			for _, r := range rs {
				mean += r
			}
			mean /= float64(len(rs))
		}
		fmt.Printf("%s\t%v\n", day, mean)
	}
	fmt.Println()

	// Category mix per period.
	for _, period := range []string{"morning", "afternoon"} {
		m := periods[period]
		fmt.Printf("%-10s %5d events, ML/Design share %.1f%%\n",
			period, m.events, 100*float64(m.mlDesign)/float64(m.events))
	}
	fmt.Println()

	// Statistical check: do weekend and weekday reaction times differ?
	d, p, err := stats.KSTwoSample(reactions["weekday"], reactions["weekend"])
	if err != nil {
		log.Fatal(err)
	}
	verdict := "no evidence of a difference"
	if p < 0.05 {
		verdict = "distributions differ"
	}
	fmt.Printf("weekday-vs-weekend reaction KS: D=%.3f p=%.3f — %s\n", d, p, verdict)
	fmt.Println("(the synthetic corpus plants no day-of-week effect, so a large p is the correct answer)")
}
