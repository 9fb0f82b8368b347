package schema

import (
	"testing"
	"time"
)

func TestParseManufacturerAliases(t *testing.T) {
	cases := []struct {
		in   string
		want Manufacturer
	}{
		{"Waymo", Waymo},
		{"Google", Waymo},
		{"Waymo (Google)", Waymo},
		{"GOOGLE AUTO LLC", Waymo},
		{"Mercedes-Benz", MercedesBenz},
		{"mercedes benz", MercedesBenz},
		{"Benz", MercedesBenz},
		{"Delphi Automotive", Delphi},
		{"GM Cruise", GMCruise},
		{"Cruise Automation", GMCruise},
		{"Tesla Motors", Tesla},
		{"VW", Volkswagen},
		{"Uber ATC", UberATC},
		{"Robert Bosch LLC", Bosch},
		{"Nissan North America", Nissan},
		{"Honda R&D Americas", Honda},
		{"Ford Motor Company", Ford},
		{"BMW of North America", BMW},
	}
	for _, c := range cases {
		got, ok := ParseManufacturer(c.in)
		if !ok || got != c.want {
			t.Errorf("ParseManufacturer(%q) = %q, %v; want %q", c.in, got, ok, c.want)
		}
	}
	if _, ok := ParseManufacturer("Atlantis Motors"); ok {
		t.Error("unknown name should not parse")
	}
	if _, ok := ParseManufacturer(""); ok {
		t.Error("empty name should not parse")
	}
}

func TestManufacturerLists(t *testing.T) {
	all := AllManufacturers()
	if len(all) != 12 {
		t.Errorf("AllManufacturers = %d, want 12", len(all))
	}
	analysis := AnalysisManufacturers()
	if len(analysis) != 8 {
		t.Errorf("AnalysisManufacturers = %d, want 8", len(analysis))
	}
	inAll := map[Manufacturer]bool{}
	for _, m := range all {
		inAll[m] = true
	}
	for _, m := range analysis {
		if !inAll[m] {
			t.Errorf("%s in analysis but not all", m)
		}
	}
	excluded := map[Manufacturer]bool{UberATC: true, BMW: true, Ford: true, Honda: true}
	for _, m := range analysis {
		if excluded[m] {
			t.Errorf("%s should be excluded from analysis", m)
		}
	}
}

func TestReportYearString(t *testing.T) {
	if Report2016.String() != "2015-2016" || Report2017.String() != "2016-2017" {
		t.Error("report year strings wrong")
	}
	if ReportYear(9).String() != "ReportYear(9)" {
		t.Error("fallback string wrong")
	}
	if len(ReportYears()) != 2 {
		t.Error("two report years expected")
	}
}

func TestParseModality(t *testing.T) {
	cases := []struct {
		in   string
		want Modality
	}{
		{"automatic", ModalityAutomatic},
		{"AUTO", ModalityAutomatic},
		{"manual", ModalityManual},
		{"Safe Operation", ModalityManual},
		{"planned test", ModalityPlanned},
		{"??", ModalityUnknown},
	}
	for _, c := range cases {
		if got := ParseModality(c.in); got != c.want {
			t.Errorf("ParseModality(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, m := range []Modality{ModalityAutomatic, ModalityManual, ModalityPlanned, ModalityUnknown} {
		if m.String() == "" {
			t.Errorf("modality %d has empty string", m)
		}
	}
}

func TestParseRoadType(t *testing.T) {
	cases := []struct {
		in   string
		want RoadType
	}{
		{"city street", RoadCityStreet},
		{"Urban", RoadCityStreet},
		{"highway", RoadHighway},
		{"Interstate", RoadInterstate},
		{"freeway", RoadFreeway},
		{"parking lot", RoadParkingLot},
		{"suburban", RoadSuburban},
		{"rural", RoadRural},
		{"???", RoadUnknown},
	}
	for _, c := range cases {
		if got := ParseRoadType(c.in); got != c.want {
			t.Errorf("ParseRoadType(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	// Round trip: String then Parse.
	for _, r := range []RoadType{RoadCityStreet, RoadHighway, RoadInterstate, RoadFreeway, RoadParkingLot, RoadSuburban, RoadRural} {
		if got := ParseRoadType(r.String()); got != r {
			t.Errorf("round trip %v -> %q -> %v", r, r.String(), got)
		}
	}
}

func TestParseWeather(t *testing.T) {
	cases := []struct {
		in   string
		want Weather
	}{
		{"Sunny/Dry", WeatherSunny},
		{"clear", WeatherSunny},
		{"light rain", WeatherRaining},
		{"overcast", WeatherCloudy},
		{"fog", WeatherFoggy},
		{"???", WeatherUnknown},
	}
	for _, c := range cases {
		if got := ParseWeather(c.in); got != c.want {
			t.Errorf("ParseWeather(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestDisengagementHasReaction(t *testing.T) {
	d := Disengagement{ReactionSeconds: -1}
	if d.HasReaction() {
		t.Error("negative reaction should mean unreported")
	}
	d.ReactionSeconds = 0.5
	if !d.HasReaction() {
		t.Error("positive reaction should be reported")
	}
}

func TestAccidentRelativeSpeed(t *testing.T) {
	a := Accident{AVSpeedMPH: 4, OtherSpeedMPH: 10}
	if a.RelativeSpeedMPH() != 6 {
		t.Errorf("relative = %g", a.RelativeSpeedMPH())
	}
	a = Accident{AVSpeedMPH: 10, OtherSpeedMPH: 4}
	if a.RelativeSpeedMPH() != 6 {
		t.Errorf("relative abs = %g", a.RelativeSpeedMPH())
	}
	a = Accident{AVSpeedMPH: -1, OtherSpeedMPH: 4}
	if a.RelativeSpeedMPH() >= 0 {
		t.Error("unknown speed should give negative relative")
	}
}

func TestCorpusHelpers(t *testing.T) {
	c := Corpus{
		Mileage: []MonthlyMileage{
			{Manufacturer: Waymo, Vehicle: "w1", ReportYear: Report2016, Month: StudyStart, Miles: 100},
			{Manufacturer: Waymo, Vehicle: "w2", ReportYear: Report2016, Month: StudyStart, Miles: 50},
			{Manufacturer: Nissan, Vehicle: "n1", ReportYear: Report2016, Month: StudyStart, Miles: 25},
		},
		Disengagements: []Disengagement{
			{Manufacturer: Waymo, ReportYear: Report2016, Time: StudyStart},
			{Manufacturer: Nissan, ReportYear: Report2016, Time: StudyStart},
			{Manufacturer: Nissan, ReportYear: Report2016, Time: StudyStart},
		},
		Accidents: []Accident{
			{Manufacturer: Waymo, ReportYear: Report2016, Time: StudyStart},
		},
	}
	if c.TotalMiles() != 175 {
		t.Errorf("TotalMiles = %g", c.TotalMiles())
	}
	if c.MilesBy()[Waymo] != 150 {
		t.Errorf("MilesBy[Waymo] = %g", c.MilesBy()[Waymo])
	}
}

func TestCorpusValidate(t *testing.T) {
	good := Corpus{
		Mileage: []MonthlyMileage{{Manufacturer: Waymo, Vehicle: "w", ReportYear: Report2016, Month: StudyStart, Miles: 1}},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid corpus rejected: %v", err)
	}
	bad := Corpus{Mileage: []MonthlyMileage{{Manufacturer: "Atlantis", Month: StudyStart}}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown manufacturer should fail")
	}
	bad = Corpus{Mileage: []MonthlyMileage{{Manufacturer: Waymo, Month: StudyStart, Miles: -1}}}
	if err := bad.Validate(); err == nil {
		t.Error("negative miles should fail")
	}
	bad = Corpus{Mileage: []MonthlyMileage{{Manufacturer: Waymo, Month: StudyStart.AddDate(-1, 0, 0), Miles: 1}}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-window month should fail")
	}
	bad = Corpus{Disengagements: []Disengagement{{Manufacturer: Waymo, Time: StudyEnd.Add(time.Hour)}}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-window disengagement should fail")
	}
	bad = Corpus{Accidents: []Accident{{Manufacturer: "X", Time: StudyStart}}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown accident manufacturer should fail")
	}
}

func TestStudyWindow(t *testing.T) {
	if StudyStart.Year() != 2014 || StudyStart.Month() != time.September {
		t.Error("study start wrong")
	}
	if StudyEnd.Year() != 2016 || StudyEnd.Month() != time.November {
		t.Error("study end wrong")
	}
	// 26-month window like the paper says (Sep 2014 .. Nov 2016
	// inclusive is 27 calendar months; the paper's "26-month period"
	// counts the span).
	months := 0
	for m := StudyStart; m.Before(StudyEnd); m = m.AddDate(0, 1, 0) {
		months++
	}
	if months < 26 || months > 27 {
		t.Errorf("study window = %d months", months)
	}
}
