package synth

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"avfda/internal/calib"
	"avfda/internal/ontology"
	"avfda/internal/schema"
)

// genOnce caches one generated corpus across tests in this package.
var genCache *Truth

func generated(t *testing.T) *Truth {
	t.Helper()
	if genCache == nil {
		tr, err := Generate(Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		genCache = tr
	}
	return genCache
}

func TestGenerateMatchesTableICounts(t *testing.T) {
	tr := generated(t)
	// Per manufacturer-year disengagement counts are exact.
	counts := make(map[schema.Manufacturer]map[schema.ReportYear]int)
	for _, d := range tr.Corpus.Disengagements {
		if counts[d.Manufacturer] == nil {
			counts[d.Manufacturer] = make(map[schema.ReportYear]int)
		}
		counts[d.Manufacturer][d.ReportYear]++
	}
	for m, years := range calib.TableI {
		for y, st := range years {
			if st.Disengagements <= 0 {
				continue
			}
			if got := counts[m][y]; got != st.Disengagements {
				t.Errorf("%s %s: %d disengagements, want %d", m, y, got, st.Disengagements)
			}
		}
	}
	if got := len(tr.Corpus.Disengagements); got != calib.TotalDisengagements {
		t.Errorf("total disengagements = %d, want %d", got, calib.TotalDisengagements)
	}
	if got := len(tr.Tags); got != len(tr.Corpus.Disengagements) {
		t.Errorf("tags length %d != disengagements %d", got, len(tr.Corpus.Disengagements))
	}
}

func TestGenerateMatchesMiles(t *testing.T) {
	tr := generated(t)
	miles := make(map[schema.Manufacturer]map[schema.ReportYear]float64)
	for _, m := range tr.Corpus.Mileage {
		if miles[m.Manufacturer] == nil {
			miles[m.Manufacturer] = make(map[schema.ReportYear]float64)
		}
		miles[m.Manufacturer][m.ReportYear] += m.Miles
	}
	for m, years := range calib.TableI {
		for y, st := range years {
			if st.Miles <= 0 {
				continue
			}
			got := miles[m][y]
			if math.Abs(got-st.Miles) > 1e-6*st.Miles+1e-9 {
				t.Errorf("%s %s: %.3f miles, want %.3f", m, y, got, st.Miles)
			}
		}
	}
	total := tr.Corpus.TotalMiles()
	if math.Abs(total-calib.TotalMiles) > 1 {
		t.Errorf("total miles = %.1f, want ~%.1f", total, calib.TotalMiles)
	}
}

func TestGenerateAccidentCounts(t *testing.T) {
	tr := generated(t)
	if got := len(tr.Corpus.Accidents); got != calib.TotalAccidents {
		t.Fatalf("accidents = %d, want %d", got, calib.TotalAccidents)
	}
	byMfr := make(map[schema.Manufacturer]int)
	for _, a := range tr.Corpus.Accidents {
		byMfr[a.Manufacturer]++
	}
	for m, row := range calib.TableVI {
		if got := byMfr[m]; got != row.Accidents {
			t.Errorf("%s accidents = %d, want %d", m, got, row.Accidents)
		}
	}
}

func TestGenerateCaseStudiesPresent(t *testing.T) {
	tr := generated(t)
	var creep, yield bool
	for _, a := range tr.Corpus.Accidents {
		if strings.Contains(a.Narrative, "recklessly behaving road user") {
			creep = true
		}
		if strings.Contains(a.Narrative, "incorrect behavior prediction") {
			yield = true
		}
	}
	if !creep || !yield {
		t.Errorf("case studies missing: creep=%v yield=%v", creep, yield)
	}
}

func TestGenerateCategoryMix(t *testing.T) {
	tr := generated(t)
	// Per-manufacturer category percentages should land near Table IV.
	type catCount struct{ perc, plan, sys, unk, total float64 }
	agg := make(map[schema.Manufacturer]*catCount)
	for i, d := range tr.Corpus.Disengagements {
		c := agg[d.Manufacturer]
		if c == nil {
			c = &catCount{}
			agg[d.Manufacturer] = c
		}
		c.total++
		tag := tr.Tags[i]
		switch ontology.CategoryOf(tag) {
		case ontology.CategoryMLDesign:
			if p, _ := ontology.MLSubclass(tag); p {
				c.perc++
			} else {
				c.plan++
			}
		case ontology.CategorySystem:
			c.sys++
		default:
			c.unk++
		}
	}
	const tolPP = 6.0 // percentage points
	for m, want := range calib.TableIV {
		got := agg[m]
		if got == nil || got.total == 0 {
			t.Errorf("%s: no events", m)
			continue
		}
		checks := []struct {
			name      string
			got, want float64
		}{
			{"perception", 100 * got.perc / got.total, want.PerceptionPct},
			{"planner", 100 * got.plan / got.total, want.PlannerPct},
			{"system", 100 * got.sys / got.total, want.SystemPct},
			{"unknown", 100 * got.unk / got.total, want.UnknownPct},
		}
		for _, c := range checks {
			if math.Abs(c.got-c.want) > tolPP {
				t.Errorf("%s %s = %.1f%%, want %.1f%% (±%g)", m, c.name, c.got, c.want, tolPP)
			}
		}
	}
	// Headline: ML/Design share across the whole corpus ~64%.
	var ml, total float64
	for _, tag := range tr.Tags {
		total++
		if ontology.CategoryOf(tag) == ontology.CategoryMLDesign {
			ml++
		}
	}
	share := ml / total
	if math.Abs(share-calib.MLDesignShare) > 0.05 {
		t.Errorf("ML/Design share = %.3f, want ~%.2f", share, calib.MLDesignShare)
	}
}

func TestGenerateModalityMix(t *testing.T) {
	tr := generated(t)
	counts := make(map[schema.Manufacturer]map[schema.Modality]int)
	totals := make(map[schema.Manufacturer]int)
	for _, d := range tr.Corpus.Disengagements {
		if counts[d.Manufacturer] == nil {
			counts[d.Manufacturer] = make(map[schema.Modality]int)
		}
		counts[d.Manufacturer][d.Modality]++
		totals[d.Manufacturer]++
	}
	// Bosch and GM Cruise report 100% planned.
	for _, m := range []schema.Manufacturer{schema.Bosch, schema.GMCruise} {
		if counts[m][schema.ModalityPlanned] != totals[m] {
			t.Errorf("%s: %d/%d planned, want all", m, counts[m][schema.ModalityPlanned], totals[m])
		}
	}
	// Volkswagen 100% automatic.
	if counts[schema.Volkswagen][schema.ModalityAutomatic] != totals[schema.Volkswagen] {
		t.Error("Volkswagen should be all automatic")
	}
	// Waymo near 50/50.
	wa := float64(counts[schema.Waymo][schema.ModalityAutomatic]) / float64(totals[schema.Waymo])
	if math.Abs(wa-0.5032) > 0.05 {
		t.Errorf("Waymo automatic share = %.3f, want ~0.503", wa)
	}
}

func TestGenerateReactionTimes(t *testing.T) {
	tr := generated(t)
	var sum float64
	var n int
	sawOutlier := false
	for _, d := range tr.Corpus.Disengagements {
		switch d.Manufacturer {
		case schema.Bosch, schema.GMCruise, schema.Ford, schema.BMW:
			if d.HasReaction() {
				t.Fatalf("%s should not report reaction times", d.Manufacturer)
			}
			continue
		}
		if !d.HasReaction() {
			t.Fatalf("%s missing reaction time", d.Manufacturer)
		}
		if d.ReactionSeconds >= calib.VWOutlierSeconds {
			sawOutlier = true
			continue // exclude the planted outlier from the mean, as the paper does
		}
		sum += d.ReactionSeconds
		n++
	}
	if !sawOutlier {
		t.Error("VW 4-hour outlier not planted")
	}
	mean := sum / float64(n)
	if math.Abs(mean-calib.MeanReactionSeconds) > 0.25 {
		t.Errorf("mean reaction = %.3f s, want ~%.2f s", mean, calib.MeanReactionSeconds)
	}
}

func TestGenerateAccidentSpeeds(t *testing.T) {
	tr := generated(t)
	var under10, withSpeeds float64
	for _, a := range tr.Corpus.Accidents {
		rel := a.RelativeSpeedMPH()
		if rel < 0 {
			continue
		}
		withSpeeds++
		if rel < 10 {
			under10++
		}
		if a.AVSpeedMPH > 30 || a.OtherSpeedMPH > 40 {
			t.Errorf("accident speeds out of range: %g / %g", a.AVSpeedMPH, a.OtherSpeedMPH)
		}
	}
	if withSpeeds == 0 {
		t.Fatal("no accidents with speeds")
	}
	if frac := under10 / withSpeeds; frac < 0.65 {
		t.Errorf("relative speed <10mph fraction = %.2f, want > 0.65 (paper: >0.8)", frac)
	}
}

// TestGenerateGolden pins the generated Stage I corpus, ground-truth tags
// included, byte for byte: the SHA-256 of its JSON encoding per seed. Any
// change to these digests changes every downstream study.
func TestGenerateGolden(t *testing.T) {
	want := map[int64]string{
		1:   "ba7ca9af80574cb0af58fe4c668d15be7fe58f47a63d9726db67c4de666698d2",
		2:   "2c72e3fcd8661eaba01ac836c474bf6031f7c6e9dc7fc4c034e6e82fb5fc26cd",
		41:  "af9a9efd4242bc13f3df88fd8acc93c5a36fc8f14d8171b5b2001b4168c41072",
		165: "f810ed52e2b6b987ba18e25a21dfb3c34877120fbff0479e5c8ba679f5bf6043",
		500: "83ede58b73121ceca9461247b49c762e69c9544259813532d61276fdcfcf456b",
	}
	for seed, digest := range want {
		tr, err := Generate(Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(*tr)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != digest {
			t.Errorf("seed %d: corpus sha256 = %s, want %s", seed, got, digest)
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a, err := Generate(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Corpus.Disengagements) != len(b.Corpus.Disengagements) {
		t.Fatal("different event counts for same seed")
	}
	for i := range a.Corpus.Disengagements {
		da, db := a.Corpus.Disengagements[i], b.Corpus.Disengagements[i]
		if da != db {
			t.Fatalf("event %d differs: %+v vs %+v", i, da, db)
		}
		if a.Tags[i] != b.Tags[i] {
			t.Fatalf("tag %d differs", i)
		}
	}
	// Different seed gives different attribute draws.
	c, err := Generate(Config{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Corpus.Disengagements {
		if a.Corpus.Disengagements[i].Time.Equal(c.Corpus.Disengagements[i].Time) {
			same++
		}
	}
	if same == len(a.Corpus.Disengagements) {
		t.Error("different seeds produced identical timestamps")
	}
}

func TestGenerateValidCorpus(t *testing.T) {
	tr := generated(t)
	if err := tr.Corpus.Validate(); err != nil {
		t.Fatal(err)
	}
	// Dash preservation: Benz 2016-17 and GM Cruise have unreported cars.
	for _, f := range tr.Corpus.Fleets {
		st := calib.TableI[f.Manufacturer][f.ReportYear]
		if f.Cars != st.Cars {
			t.Errorf("%s %s: fleet cars %d, want %d", f.Manufacturer, f.ReportYear, f.Cars, st.Cars)
		}
	}
	// Uber appears only as an accident.
	count := func(m schema.Manufacturer) (events, accidents int) {
		for _, d := range tr.Corpus.Disengagements {
			if d.Manufacturer == m {
				events++
			}
		}
		for _, a := range tr.Corpus.Accidents {
			if a.Manufacturer == m {
				accidents++
			}
		}
		return events, accidents
	}
	if events, accidents := count(schema.UberATC); events != 0 || accidents != 1 {
		t.Errorf("Uber has %d disengagements and %d accidents, want 0 and 1", events, accidents)
	}
}

func TestGenerateTemporalTrend(t *testing.T) {
	// Waymo's per-mile disengagement rate should fall sharply across
	// calendar years (paper: ~8x median drop).
	tr := generated(t)
	milesByYear := make(map[int]float64)
	eventsByYear := make(map[int]float64)
	for _, m := range tr.Corpus.Mileage {
		if m.Manufacturer == schema.Waymo {
			milesByYear[m.Month.Year()] += m.Miles
		}
	}
	for _, d := range tr.Corpus.Disengagements {
		if d.Manufacturer == schema.Waymo {
			eventsByYear[d.Time.Year()]++
		}
	}
	dpm2014 := eventsByYear[2014] / milesByYear[2014]
	dpm2016 := eventsByYear[2016] / milesByYear[2016]
	if dpm2014/dpm2016 < 3 {
		t.Errorf("Waymo DPM 2014/2016 ratio = %.2f, want >= 3 (paper ~8)", dpm2014/dpm2016)
	}
}

func TestLargestRemainder(t *testing.T) {
	cases := []struct {
		total   int
		weights []float64
		wantSum int
	}{
		{10, []float64{1, 1, 1}, 10},
		{7, []float64{0.5, 0.25, 0.25}, 7},
		{0, []float64{1, 2}, 0},
		{5, []float64{0, 0, 0}, 5},
		{3, []float64{-1, 2, 0}, 3},
		{100, []float64{1e-9, 1e-9}, 100},
	}
	for _, c := range cases {
		got := largestRemainder(c.total, c.weights)
		sum := 0
		for _, g := range got {
			if g < 0 {
				t.Errorf("negative allocation in %v", got)
			}
			sum += g
		}
		if sum != c.wantSum {
			t.Errorf("largestRemainder(%d, %v) sums to %d", c.total, c.weights, sum)
		}
	}
	// Proportionality on a big allocation.
	got := largestRemainder(1000, []float64{3, 1})
	if got[0] != 750 || got[1] != 250 {
		t.Errorf("largestRemainder(1000, 3:1) = %v", got)
	}
}

func TestSplitAmount(t *testing.T) {
	out := splitAmount(100, []float64{1, 3})
	if math.Abs(out[0]-25) > 1e-9 || math.Abs(out[1]-75) > 1e-9 {
		t.Errorf("splitAmount = %v", out)
	}
	// Exactness: pieces sum to the total.
	weights := []float64{0.1, 0.7, 0.3, 1e-8}
	out = splitAmount(1116605, weights)
	var sum float64
	for _, v := range out {
		sum += v
	}
	if math.Abs(sum-1116605) > 1e-6 {
		t.Errorf("splitAmount pieces sum to %.9f", sum)
	}
	// Degenerate weights.
	out = splitAmount(5, []float64{0, 0})
	if out[0] != 5 {
		t.Errorf("degenerate splitAmount = %v", out)
	}
}

// The model's badnessSpread controls the per-car DPM dispersion that Fig. 4
// visualizes: a wider spread must widen the log-IQR of per-car rates.
func TestBadnessSpreadWidensDPMSpread(t *testing.T) {
	iqr := func(spread float64) float64 {
		m := calibrated
		m.badnessSpread = spread
		tr, err := generate(6, m)
		if err != nil {
			t.Fatal(err)
		}
		miles := make(map[schema.VehicleID]float64)
		events := make(map[schema.VehicleID]float64)
		for _, m := range tr.Corpus.Mileage {
			if m.Manufacturer == schema.Waymo {
				miles[m.Vehicle] += m.Miles
			}
		}
		for _, d := range tr.Corpus.Disengagements {
			if d.Manufacturer == schema.Waymo {
				events[d.Vehicle]++
			}
		}
		var logDPM []float64
		for v, mi := range miles {
			if mi > 0 && events[v] > 0 {
				logDPM = append(logDPM, math.Log(events[v]/mi))
			}
		}
		if len(logDPM) < 10 {
			t.Fatalf("too few cars with events: %d", len(logDPM))
		}
		sortFloats(logDPM)
		q1 := logDPM[len(logDPM)/4]
		q3 := logDPM[3*len(logDPM)/4]
		return q3 - q1
	}
	narrow := iqr(0.2)
	wide := iqr(1.2)
	if wide <= narrow {
		t.Errorf("log-IQR narrow=%.3f wide=%.3f; spread knob has no effect", narrow, wide)
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Property: largestRemainder always sums exactly to the total and never
// allocates to zero-weight buckets when positive weights exist.
func TestLargestRemainderProperty(t *testing.T) {
	prop := func(seed int64, totalSeed uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		weights := make([]float64, n)
		anyPositive := false
		for i := range weights {
			if r.Intn(4) == 0 {
				weights[i] = 0
			} else {
				weights[i] = r.Float64() * 100
				anyPositive = true
			}
		}
		total := int(totalSeed % 2000)
		got := largestRemainder(total, weights)
		sum := 0
		for i, g := range got {
			if g < 0 {
				return false
			}
			if anyPositive && weights[i] <= 0 && g > 0 {
				return false
			}
			sum += g
		}
		return sum == total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(49))}); err != nil {
		t.Error(err)
	}
}

// Property: multinomial sums exactly to the total and tracks weights in
// expectation.
func TestMultinomialProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = r.Float64() * 10
		}
		total := 5000
		got := multinomial(total, weights, r)
		sum := 0
		for _, g := range got {
			if g < 0 {
				return false
			}
			sum += g
		}
		if sum != total {
			return false
		}
		// The largest-weight bucket should receive the most draws (with
		// 5000 draws and distinct random weights this holds w.h.p.).
		maxW, maxWi := weights[0], 0
		for i, w := range weights {
			if w > maxW {
				maxW, maxWi = w, i
			}
		}
		maxG, maxGi := got[0], 0
		for i, g := range got {
			if g > maxG {
				maxG, maxGi = g, i
			}
		}
		_ = maxG
		return maxWi == maxGi || weights[maxGi] > 0.8*maxW
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(49))}); err != nil {
		t.Error(err)
	}
}

func TestMultinomialDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	got := multinomial(10, []float64{0, 0, 0}, rng)
	sum := 0
	for _, g := range got {
		sum += g
	}
	if sum != 10 {
		t.Errorf("degenerate multinomial sums to %d", sum)
	}
	if out := multinomial(0, []float64{1, 2}, rng); out[0]+out[1] != 0 {
		t.Error("zero total should allocate nothing")
	}
}

func TestReportWindows(t *testing.T) {
	f1, l1 := reportWindow(schema.Report2016)
	if f1.Year() != 2014 || l1.Year() != 2015 {
		t.Errorf("2016 window = %v..%v", f1, l1)
	}
	months := monthsBetween(f1, l1)
	if len(months) != 15 {
		t.Errorf("2016 window months = %d, want 15", len(months))
	}
	f2, l2 := reportWindow(schema.Report2017)
	if f2.Year() != 2015 || f2.Month() != 12 || l2.Month() != 11 {
		t.Errorf("2017 window = %v..%v", f2, l2)
	}
	if len(monthsBetween(f2, l2)) != 12 {
		t.Error("2017 window should be 12 months")
	}
}
