package scandoc

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"avfda/internal/calib"
	"avfda/internal/schema"
)

// The row renderers build lines by appending, not through fmt. These
// references are the fmt.Sprintf formats they replaced; the parsers were
// written against them, so every renderer must match its reference byte
// for byte.

func sprintfReaction(e schema.Disengagement) string {
	if !e.HasReaction() {
		return "-"
	}
	return fmt.Sprintf("%.3f s", e.ReactionSeconds)
}

func sprintfTabular(e schema.Disengagement) string {
	return fmt.Sprintf("%s | %s | %s | %s | %s | %s | %s",
		e.Time.Format("2006-01-02 15:04:05"), orDash(string(e.Vehicle)),
		e.Modality, e.Road, e.Weather, sprintfReaction(e), e.Cause)
}

func sprintfLogLine(e schema.Disengagement) string {
	return fmt.Sprintf("%s — %s — %s — %s — %s — %s — %s — %s",
		e.Time.Format("1/2/06"), e.Time.Format("3:04:05 PM"), orDash(string(e.Vehicle)),
		e.Cause, e.Road, e.Weather, sprintfReaction(e), strings.ToLower(e.Modality.String()))
}

func sprintfMonthly(e schema.Disengagement) string {
	return fmt.Sprintf("%s — %s — %s — %s — %s — %s — %s",
		e.Time.Format("Jan-06"), orDash(string(e.Vehicle)), e.Road,
		e.Modality.String(), e.Cause, sprintfReaction(e), e.Time.Format("2006-01-02 15:04:05"))
}

func TestRowRenderersMatchSprintf(t *testing.T) {
	base := schema.Disengagement{
		Manufacturer: schema.Nissan, Vehicle: "Nissan-1-car01",
		ReportYear: schema.Report2016,
		Time:       time.Date(2016, time.January, 4, 13, 25, 5, 0, time.UTC),
		Cause:      "Software module froze",
		Modality:   schema.ModalityManual, Road: schema.RoadHighway,
		Weather: schema.WeatherSunny, ReactionSeconds: 0.9,
	}
	edit := func(f func(*schema.Disengagement)) schema.Disengagement {
		e := base
		f(&e)
		return e
	}
	rows := map[string]schema.Disengagement{
		"plain":      base,
		"no vehicle": edit(func(e *schema.Disengagement) { e.Vehicle = "" }),
		"no reaction": edit(func(e *schema.Disengagement) {
			e.ReactionSeconds = -1
		}),
		"VW outlier": edit(func(e *schema.Disengagement) {
			e.Manufacturer, e.ReactionSeconds = schema.Volkswagen, calib.VWOutlierSeconds
		}),
		"zero reaction": edit(func(e *schema.Disengagement) { e.ReactionSeconds = 0 }),
		// 0.0625 and 2.0625 are exact binary ties at 3 decimals; the
		// others sit just off a tie.
		"tie 0.0625":  edit(func(e *schema.Disengagement) { e.ReactionSeconds = 0.0625 }),
		"tie 2.0625":  edit(func(e *schema.Disengagement) { e.ReactionSeconds = 2.0625 }),
		"near 0.0005": edit(func(e *schema.Disengagement) { e.ReactionSeconds = 0.0005 }),
		"near 0.9995": edit(func(e *schema.Disengagement) { e.ReactionSeconds = 0.9995 }),
		"near 1.2345": edit(func(e *schema.Disengagement) { e.ReactionSeconds = 1.2345 }),
		"midnight": edit(func(e *schema.Disengagement) {
			e.Time = time.Date(2016, time.December, 31, 0, 0, 0, 0, time.UTC)
		}),
		"noon": edit(func(e *schema.Disengagement) {
			e.Time = time.Date(2015, time.October, 9, 12, 0, 59, 0, time.UTC)
		}),
		"unknowns": edit(func(e *schema.Disengagement) {
			e.Modality, e.Road, e.Weather = schema.ModalityUnknown, schema.RoadUnknown, schema.WeatherUnknown
		}),
		"planned, separators in cause": edit(func(e *schema.Disengagement) {
			e.Modality, e.Cause = schema.ModalityPlanned, "Emergency — vehicle | ahead"
		}),
		"automatic":   edit(func(e *schema.Disengagement) { e.Modality = schema.ModalityAutomatic }),
		"empty cause": edit(func(e *schema.Disengagement) { e.Cause = "" }),
	}
	for name, e := range rows {
		for _, r := range []struct {
			layout    string
			got, want func(schema.Disengagement) string
		}{
			{"tabular", renderTabularEvent, sprintfTabular},
			{"log", renderLogLineEvent, sprintfLogLine},
			{"monthly", renderMonthlyEvent, sprintfMonthly},
		} {
			if got, want := r.got(e), r.want(e); got != want {
				t.Errorf("%s %s row:\n got %q\nwant %q", name, r.layout, got, want)
			}
		}
	}

	for _, mm := range []schema.MonthlyMileage{
		{Vehicle: "car01", Month: time.Date(2015, time.March, 1, 0, 0, 0, 0, time.UTC), Miles: 1234.5},
		{Vehicle: "", Month: time.Date(2016, time.November, 1, 0, 0, 0, 0, time.UTC), Miles: 0},
		{Vehicle: "car02", Month: time.Date(2016, time.January, 1, 0, 0, 0, 0, time.UTC), Miles: 0.125},
		{Vehicle: "car03", Month: time.Date(2016, time.January, 1, 0, 0, 0, 0, time.UTC), Miles: 0.375},
		{Vehicle: "car04", Month: time.Date(2016, time.January, 1, 0, 0, 0, 0, time.UTC), Miles: 2.675},
		{Vehicle: "car05", Month: time.Date(2016, time.January, 1, 0, 0, 0, 0, time.UTC), Miles: 99999.995},
	} {
		want := fmt.Sprintf("%s | %s | %.2f", mm.Vehicle, mm.Month.Format("2006-01"), mm.Miles)
		if got := renderMileageRow(mm); got != want {
			t.Errorf("mileage row:\n got %q\nwant %q", got, want)
		}
	}

	for _, cars := range []int{-1, 0, 7, 1234} {
		want := fmt.Sprintf("%d", cars)
		if cars < 0 {
			want = "-"
		}
		if got := fleetSize(schema.Fleet{Cars: cars}); got != want {
			t.Errorf("fleetSize(%d) = %q, want %q", cars, got, want)
		}
	}
}
