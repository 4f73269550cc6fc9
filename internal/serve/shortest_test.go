package serve

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// strconvFloat is the reference appendFloat is held to: encoding/json's own
// float64 rendering, strconv's shortest digits with e-07 cleaned to e-7.
func strconvFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	return b
}

// checkFloat holds appendFloat to strconvFloat on one finite v.
func checkFloat(t testing.TB, v float64) {
	t.Helper()
	var got, want [32]byte
	if g, w := appendFloat(got[:0], v), strconvFloat(want[:0], v); string(g) != string(w) {
		t.Fatalf("appendFloat(%#016x) = %s, strconv writes %s", math.Float64bits(v), g, w)
	}
}

// FuzzAppendFloatMatchesStrconv holds appendFloat to strconv over every
// finite float64 bit pattern.
func FuzzAppendFloatMatchesStrconv(f *testing.F) {
	f.Add(math.Float64bits(1.5))
	f.Fuzz(func(t *testing.T, bits uint64) {
		if v := math.Float64frombits(bits); !math.IsInf(v, 0) && !math.IsNaN(v) {
			checkFloat(t, v)
		}
	})
}

// TestAppendFloatSweep runs appendFloat against strconv over every power of
// two and every power of ten, each with its neighbours one ulp away, then
// over seeded random bit patterns and values shaped like fares and their
// sums and averages.
func TestAppendFloatSweep(t *testing.T) {
	near := func(v float64) {
		for _, w := range []float64{v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1))} {
			if !math.IsInf(w, 0) {
				checkFloat(t, w)
				checkFloat(t, -w)
			}
		}
	}
	for e := -1074; e <= 1023; e++ {
		near(math.Ldexp(1, e))
	}
	for e := -323; e <= 308; e++ {
		v, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil {
			t.Fatal(err)
		}
		near(v)
	}
	rng := rand.New(rand.NewSource(48))
	for range 200_000 {
		if v := math.Float64frombits(rng.Uint64()); !math.IsInf(v, 0) && !math.IsNaN(v) {
			checkFloat(t, v)
		}
		cents := float64(rng.Intn(100_000_00)) / 100
		checkFloat(t, cents)
		checkFloat(t, cents/float64(1+rng.Intn(5000)))
		checkFloat(t, float64(rng.Int63n(1<<53)))
		checkFloat(t, rng.Float64()*1e6)
	}
}
