package scandoc

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// TestAppendFloatMatchesStrconv holds appendFloat to
// strconv.AppendFloat(..., 'f', prec, 64) on random values and on the
// cases where a shortcut would go wrong: exact binary ties (0.5, 2.5,
// 0.125), decimal ties and the floats a few ulps either side of them,
// negatives, negative zero and negatives that round to zero, values at
// and around 2^52 where the integer path stops, large values (1e23),
// subnormals, random bit patterns, NaN and the infinities, at precisions
// inside and outside the integer path.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 0.125, 2.675, 1.005, 0.0005, 1e-7, 5e-324,
		123456.785, 1e15, 1e16 + 2, 1e23, 1 << 52, 1<<53 + 2, 1 << 45, 1<<41 + 0.125, 1<<40 + 0.0625,
		1<<52 - 0.5, math.Nextafter(1<<52, 0), 1<<51 + 0.5, 0.5, 1.5, 2.5, -0.0004, -0.0005,
		math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		prec := 1 + rng.Intn(4)
		scale := math.Pow10(prec + 1)
		// A decimal tie at prec digits: an integer number of
		// half-units of the last digit, scaled down.
		tie := float64(rng.Int63n(1e9)*10+5) / scale
		if rng.Intn(2) == 0 {
			tie = -tie
		}
		vals = append(vals, tie, math.Nextafter(tie, math.Inf(1)), math.Nextafter(tie, math.Inf(-1)),
			rng.Float64()*math.Pow10(rng.Intn(18)), -rng.ExpFloat64(), math.Round(rng.NormFloat64()*1e6)/scale,
			math.Float64frombits(rng.Uint64()))
	}
	for _, v := range vals {
		for prec := 0; prec <= 6; prec++ {
			want := strconv.AppendFloat([]byte("x"), v, 'f', prec, 64)
			if got := appendFloat([]byte("x"), v, prec); string(got) != string(want) {
				t.Fatalf("appendFloat(%v (%b), %d) = %q, want %q", v, v, prec, got, want)
			}
		}
	}
}
