package synth

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"time"

	"avfda/internal/calib"
	"avfda/internal/ontology"
	"avfda/internal/schema"
)

// Config parameterizes corpus generation.
type Config struct {
	// Seed drives all randomness; equal seeds give byte-identical corpora.
	Seed int64
}

// model holds the generator's shape parameters that Table I does not fix.
// Generate always uses calibrated; tests vary a field through generate.
type model struct {
	// alertnessDrift scales each drawn reaction time by
	// 1 + alertnessDrift*(p-0.5), where p is the manufacturer's share of
	// its study-wide miles driven by the end of the event's month. At the
	// calibrated 0.55 an event at the program's start takes 0.725x its
	// drawn reaction time and one at its end 1.275x: reaction times grow
	// with cumulative miles (the paper's Q4 observation that driver
	// alertness decays as the system improves), while the factor's
	// centre of 1 keeps the fleet-wide mean near the calibrated value.
	alertnessDrift float64
	// carSpread is the log-stddev of per-car mileage weights (Fig. 4
	// spread).
	carSpread float64
	// badnessSpread is the log-stddev of per-car failure-proneness
	// (drives the per-car DPM quartiles).
	badnessSpread float64
	// mileageBadnessCoupling makes high-mileage cars proportionally less
	// failure-prone (badness ~ mileageWeight^-coupling). The paper's
	// Table VII medians sit *above* the fleet-wide rates, which requires
	// exactly this inverse relation.
	mileageBadnessCoupling float64
}

// calibrated is the model every Generate call uses.
var calibrated = model{
	alertnessDrift:         0.55,
	carSpread:              0.5,
	badnessSpread:          0.6,
	mileageBadnessCoupling: 0.7,
}

// Truth is a generated corpus together with its ground-truth labels, kept
// so the pipeline's recovered tags can be scored against what was planted.
type Truth struct {
	// Corpus is the normalized ground-truth dataset.
	Corpus schema.Corpus
	// Tags holds the planted fault tag of each disengagement, aligned
	// with Corpus.Disengagements.
	Tags []ontology.Tag
}

// Generate builds the full two-release synthetic corpus calibrated to the
// paper's Table I (exact counts) and distributional targets, and validates
// it before return.
func Generate(cfg Config) (*Truth, error) {
	return generate(cfg.Seed, calibrated)
}

// generate builds the corpus for seed under model m. Each manufacturer-year
// profile draws from its own RNG, seeded from seed and the profile alone.
func generate(seed int64, m model) (*Truth, error) {
	t := &Truth{}
	ps := profiles()
	var nEvents, nMileage int
	for _, p := range ps {
		nEvents += max(p.stats.Disengagements, 0)
		nMileage += max(p.cars, 0) * len(p.activeMonths)
	}
	t.Corpus.Disengagements = make([]schema.Disengagement, 0, nEvents)
	t.Corpus.Mileage = make([]schema.MonthlyMileage, 0, nMileage)
	t.Tags = make([]ontology.Tag, 0, nEvents)
	for _, p := range ps {
		rng := rand.New(rand.NewSource(profileSeed(seed, p.mfr, p.year)))
		t.generateProfile(m, p, rng)
	}
	if err := t.Corpus.Validate(); err != nil {
		return nil, fmt.Errorf("synth: generated corpus invalid: %w", err)
	}
	return t, nil
}

// profileSeed derives a stable per-profile seed from the master seed.
func profileSeed(seed int64, m schema.Manufacturer, y schema.ReportYear) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", m, y)
	return seed ^ int64(h.Sum64())
}

// generateProfile appends one manufacturer-year's fleet, mileage,
// disengagements, and accidents to t.
func (t *Truth) generateProfile(mdl model, p profile, rng *rand.Rand) {
	// Fleet row (Cars may be calib.Unreported, preserving Table I dashes).
	t.Corpus.Fleets = append(t.Corpus.Fleets, schema.Fleet{
		Manufacturer: p.mfr,
		ReportYear:   p.year,
		Cars:         p.stats.Cars,
	})

	nCars := p.cars
	nMonths := len(p.activeMonths)
	if nCars <= 0 || nMonths == 0 {
		// Accident-only vendors (Uber) still file accident reports.
		t.generateAccidents(p, rng, nil, nil)
		return
	}

	// Per-car mileage weights and failure proneness.
	carW := make([]float64, nCars)
	badness := make([]float64, nCars)
	for i := range carW {
		carW[i] = math.Exp(rng.NormFloat64() * mdl.carSpread)
		badness[i] = math.Exp(rng.NormFloat64()*mdl.badnessSpread) *
			math.Pow(carW[i], -mdl.mileageBadnessCoupling)
	}
	// Month weights ramp up linearly: testing programs grow over time.
	monthW := make([]float64, nMonths)
	for m := range monthW {
		monthW[m] = 1 + float64(m)/float64(max(nMonths-1, 1))
	}

	// Mileage split: car x month.
	cellW := make([]float64, nCars*nMonths)
	for i := 0; i < nCars; i++ {
		for m := 0; m < nMonths; m++ {
			cellW[i*nMonths+m] = carW[i] * monthW[m]
		}
	}
	totalMiles := p.stats.Miles
	if totalMiles < 0 {
		totalMiles = 0
	}
	cellMiles := splitAmount(totalMiles, cellW)

	// Event allocation: expected events per cell follow miles x per-car
	// badness x calendar-year improvement factor. A multinomial draw (not
	// largest-remainder) keeps the exact Table I total while giving cells
	// Poisson-like dispersion — deterministic apportionment would starve
	// every below-average car and collapse the per-car DPM medians of
	// Fig. 4 to zero.
	nEvents := p.stats.Disengagements
	if nEvents < 0 {
		nEvents = 0
	}
	eventW := make([]float64, nCars*nMonths)
	for i := 0; i < nCars; i++ {
		for m := 0; m < nMonths; m++ {
			yf := yearFactor(p.mfr, p.activeMonths[m].Year())
			eventW[i*nMonths+m] = cellMiles[i*nMonths+m] * badness[i] * yf
		}
	}
	cellEvents := multinomial(nEvents, eventW, rng)

	// Cumulative-mileage fractions per month for the alertness drift.
	// Progress is global across BOTH report years (a driver's exposure to
	// the program, not to one filing period), so the Q4 reaction-time
	// correlation spans the full study window.
	monthMiles := make([]float64, nMonths)
	for m := 0; m < nMonths; m++ {
		for i := 0; i < nCars; i++ {
			monthMiles[m] += cellMiles[i*nMonths+m]
		}
	}
	prevMiles, allMiles := programMiles(p.mfr, p.year)
	cumFrac := make([]float64, nMonths)
	acc := prevMiles
	for m := 0; m < nMonths; m++ {
		acc += monthMiles[m]
		if allMiles > 0 {
			cumFrac[m] = acc / allMiles
		}
	}

	// Mileage records and events. Category and modality decks are
	// apportioned by largest remainder so the Table IV/V percentages are
	// reproduced exactly up to rounding, then shuffled over events.
	events := make([]schema.Disengagement, 0, nEvents)
	tags := make([]ontology.Tag, 0, nEvents)
	catDeck := buildCategoryDeck(nEvents, p.category, rng)
	modDeck := buildModalityDeck(nEvents, p.modality, rng)
	next := 0
	for i := 0; i < nCars; i++ {
		vid := p.vehicleID(i)
		for m := 0; m < nMonths; m++ {
			month := p.activeMonths[m]
			t.Corpus.Mileage = append(t.Corpus.Mileage, schema.MonthlyMileage{
				Manufacturer: p.mfr,
				Vehicle:      vid,
				ReportYear:   p.year,
				Month:        month,
				Miles:        cellMiles[i*nMonths+m],
			})
			for e := 0; e < cellEvents[i*nMonths+m]; e++ {
				tag := tagForCategory(catDeck[next], rng)
				ev := synthesizeEvent(mdl, p, rng, vid, month, tag, modDeck[next], cumFrac[m])
				events = append(events, ev)
				tags = append(tags, tag)
				next++
			}
		}
	}

	// Volkswagen's famous ~4 hour reaction-time outlier (paper §V-A4).
	if p.mfr == schema.Volkswagen && len(events) > 0 {
		events[rng.Intn(len(events))].ReactionSeconds = calib.VWOutlierSeconds
	}

	// Deterministic ordering: by time, then vehicle. The stable sort
	// moves indexes, not the events themselves.
	order := make([]int32, len(events))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		if c := events[a].Time.Compare(events[b].Time); c != 0 {
			return c
		}
		return cmp.Compare(events[a].Vehicle, events[b].Vehicle)
	})
	for _, i := range order {
		t.Corpus.Disengagements = append(t.Corpus.Disengagements, events[i])
		t.Tags = append(t.Tags, tags[i])
	}

	// Accident exposure scales with vehicle mileage: cars that drive more
	// have more collisions, producing the paper's strong positive per-
	// vehicle accidents-vs-miles correlation (§V-B).
	vehicles := make([]schema.VehicleID, nCars)
	carMiles := make([]float64, nCars)
	for i := 0; i < nCars; i++ {
		vehicles[i] = p.vehicleID(i)
		for m := 0; m < nMonths; m++ {
			carMiles[i] += cellMiles[i*nMonths+m]
		}
	}
	t.generateAccidents(p, rng, vehicles, carMiles)
}

// programMiles returns the manufacturer's miles in earlier report years and
// its total across all years, from the Table I calibration.
func programMiles(m schema.Manufacturer, y schema.ReportYear) (prev, total float64) {
	for _, yr := range schema.ReportYears() {
		st, ok := calib.TableI[m][yr]
		if !ok || st.Miles <= 0 {
			continue
		}
		total += st.Miles
		if yr < y {
			prev += st.Miles
		}
	}
	return prev, total
}

// buildModalityDeck apportions n events across modalities by largest
// remainder and shuffles.
func buildModalityDeck(n int, m calib.ModalityPct, rng *rand.Rand) []schema.Modality {
	weights := []float64{m.AutomaticPct, m.ManualPct, m.PlannedPct}
	if weights[0]+weights[1]+weights[2] <= 0 {
		// Unlisted manufacturers (Ford, BMW) default to automatic.
		weights = []float64{100, 0, 0}
	}
	counts := largestRemainder(n, weights)
	deck := make([]schema.Modality, 0, n)
	kinds := []schema.Modality{schema.ModalityAutomatic, schema.ModalityManual, schema.ModalityPlanned}
	for k, c := range counts {
		for i := 0; i < c; i++ {
			deck = append(deck, kinds[k])
		}
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// synthesizeEvent draws one disengagement event.
func synthesizeEvent(mdl model, p profile, rng *rand.Rand, vid schema.VehicleID,
	month time.Time, tag ontology.Tag, modality schema.Modality, progress float64,
) schema.Disengagement {
	ev := schema.Disengagement{
		Manufacturer:    p.mfr,
		Vehicle:         vid,
		ReportYear:      p.year,
		Time:            randomInstantInMonth(month, rng),
		Cause:           causeFor(tag, rng),
		Modality:        modality,
		Road:            drawRoad(rng),
		Weather:         drawWeather(rng),
		ReactionSeconds: -1,
	}
	if p.reaction != nil {
		// Drift is centered on 1 so alertness decay (positive correlation
		// of reaction time with cumulative miles, paper Q4) does not move
		// the fleet-wide mean off the calibrated 0.85 s.
		ev.ReactionSeconds = p.reaction.Rand(rng) * (1 + mdl.alertnessDrift*(progress-0.5))
	}
	return ev
}

// yearFactor returns the calendar-year DPM multiplier for a manufacturer,
// defaulting to 1 for unlisted years.
func yearFactor(m schema.Manufacturer, year int) float64 {
	if f, ok := calib.YearDPMFactor[m][year]; ok {
		return f
	}
	return 1
}

// randomInstantInMonth picks a uniformly random second within the calendar
// month, biased into daytime testing hours (07:00–19:00 local).
func randomInstantInMonth(month time.Time, rng *rand.Rand) time.Time {
	next := month.AddDate(0, 1, 0)
	days := int(next.Sub(month).Hours() / 24)
	day := rng.Intn(days)
	hour := 7 + rng.Intn(12)
	minute := rng.Intn(60)
	second := rng.Intn(60)
	return month.AddDate(0, 0, day).
		Add(time.Duration(hour)*time.Hour +
			time.Duration(minute)*time.Minute +
			time.Duration(second)*time.Second)
}

// drawRoad samples a road type from the paper's §III-C road mix.
func drawRoad(rng *rand.Rand) schema.RoadType {
	u := rng.Float64()
	var acc float64
	for _, rt := range []schema.RoadType{
		schema.RoadCityStreet, schema.RoadHighway, schema.RoadInterstate,
		schema.RoadFreeway, schema.RoadParkingLot, schema.RoadSuburban,
		schema.RoadRural,
	} {
		acc += calib.RoadMix[rt]
		if u < acc {
			return rt
		}
	}
	return schema.RoadCityStreet
}

// drawWeather samples test-day weather (California-weighted).
func drawWeather(rng *rand.Rand) schema.Weather {
	u := rng.Float64()
	switch {
	case u < 0.70:
		return schema.WeatherSunny
	case u < 0.88:
		return schema.WeatherCloudy
	case u < 0.97:
		return schema.WeatherRaining
	default:
		return schema.WeatherFoggy
	}
}
