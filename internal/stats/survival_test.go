package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestKaplanMeierNoCensoring(t *testing.T) {
	// Without censoring, S(t) is the empirical survival function.
	obs := []Observation{{Time: 1}, {Time: 2}, {Time: 3}, {Time: 4}}
	km, err := NewKaplanMeier(obs)
	if err != nil {
		t.Fatal(err)
	}
	wants := []struct{ t, s float64 }{
		{0.5, 1}, {1, 0.75}, {2, 0.5}, {3, 0.25}, {4, 0}, {99, 0},
	}
	for _, w := range wants {
		if got := km.At(w.t); math.Abs(got-w.s) > 1e-12 {
			t.Errorf("S(%g) = %g, want %g", w.t, got, w.s)
		}
	}
	if med, ok := km.MedianTime(); !ok || med != 2 {
		t.Errorf("median = %g, %v", med, ok)
	}
}

func TestKaplanMeierClassicExample(t *testing.T) {
	// Standard textbook example (Kleinbaum): times 6,6,6,7,10,13,16,22,23
	// events; 6+,9+,10+,11+,17+,19+,20+,25+,32+,32+,34+,35+ censored
	// (leukemia 6-MP arm).
	obs := []Observation{
		{Time: 6}, {Time: 6}, {Time: 6}, {Time: 7}, {Time: 10},
		{Time: 13}, {Time: 16}, {Time: 22}, {Time: 23},
		{Time: 6, Censored: true}, {Time: 9, Censored: true},
		{Time: 10, Censored: true}, {Time: 11, Censored: true},
		{Time: 17, Censored: true}, {Time: 19, Censored: true},
		{Time: 20, Censored: true}, {Time: 25, Censored: true},
		{Time: 32, Censored: true}, {Time: 32, Censored: true},
		{Time: 34, Censored: true}, {Time: 35, Censored: true},
	}
	km, err := NewKaplanMeier(obs)
	if err != nil {
		t.Fatal(err)
	}
	// Published values: S(6)=0.857, S(10)=0.753, S(22)=0.538.
	almostEqual(t, km.At(6), 0.857, 0.001, "S(6)")
	almostEqual(t, km.At(10), 0.753, 0.001, "S(10)")
	almostEqual(t, km.At(22), 0.538, 0.001, "S(22)")
	if km.Censored != 12 || km.N != 21 {
		t.Errorf("censored=%d n=%d", km.Censored, km.N)
	}
	// Greenwood errors are positive and grow.
	var prev float64
	for _, p := range km.Points {
		if p.StdErr <= 0 {
			t.Errorf("stderr at %g = %g", p.Time, p.StdErr)
		}
		if p.StdErr+1e-12 < prev {
			// Greenwood SE typically grows with time here.
			t.Logf("stderr dipped at %g", p.Time)
		}
		prev = p.StdErr
	}
	// Curve never reaches 0.5 with this censoring? S(23)=0.448 < 0.5, so
	// the median exists at 23.
	if med, ok := km.MedianTime(); !ok || med != 23 {
		t.Errorf("median = %g, %v; want 23", med, ok)
	}
}

func TestKaplanMeierErrors(t *testing.T) {
	if _, err := NewKaplanMeier(nil); err != ErrEmpty {
		t.Errorf("empty err = %v", err)
	}
	if _, err := NewKaplanMeier([]Observation{{Time: -1}}); err == nil {
		t.Error("negative time: want error")
	}
	// All censored: no steps, S stays 1.
	km, err := NewKaplanMeier([]Observation{{Time: 5, Censored: true}})
	if err != nil {
		t.Fatal(err)
	}
	if km.At(10) != 1 {
		t.Error("all-censored curve should stay at 1")
	}
	if _, ok := km.MedianTime(); ok {
		t.Error("all-censored median should not exist")
	}
}

func TestLogRankIdenticalGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	gen := func(rate float64, n int) []Observation {
		e := Exponential{Lambda: rate}
		out := make([]Observation, n)
		for i := range out {
			out[i] = Observation{Time: e.Rand(rng), Censored: rng.Float64() < 0.2}
		}
		return out
	}
	a := gen(0.1, 300)
	b := gen(0.1, 300)
	chi2, p, err := LogRank(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.001 {
		t.Errorf("same-rate log-rank p = %g (chi2 %g), should not strongly reject", p, chi2)
	}
	// Clearly different hazards reject.
	c := gen(0.4, 300)
	_, p, err = LogRank(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-6 {
		t.Errorf("different-rate log-rank p = %g, want tiny", p)
	}
}

func TestLogRankErrors(t *testing.T) {
	if _, _, err := LogRank(nil, []Observation{{Time: 1}}); err != ErrEmpty {
		t.Errorf("empty err = %v", err)
	}
	// No events at all: degenerate.
	a := []Observation{{Time: 1, Censored: true}}
	b := []Observation{{Time: 2, Censored: true}}
	if _, _, err := LogRank(a, b); err == nil {
		t.Error("no events: want error")
	}
}
