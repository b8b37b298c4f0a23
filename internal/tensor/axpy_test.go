package tensor

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// axpySpecials are the values whose rounding, sign or payload a vector
// kernel could get wrong: signed zeros and infinities, NaNs with
// different signs and payloads, subnormals, and magnitudes whose
// products overflow or underflow.
var axpySpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000), math.Float32frombits(0x7fc01234),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 3e-39, -1.1754942e-38,
	1e30, -1e30, 1, -1,
}

func axpyValue(r *rng.RNG) float32 {
	if r.Intn(3) == 0 {
		return axpySpecials[r.Intn(len(axpySpecials))]
	}
	return (r.Float32() - 0.5) * 8
}

// TestAxpyMatchesGoLoop pins axpy to the portable loop under
// math.Float32bits, for every length 0–67 (both vector widths and
// every tail) at slice offsets 0–3 (every alignment), with special
// values in a, x and y. The elements around the written run, including
// a guard just past len(x), must stay untouched.
func TestAxpyMatchesGoLoop(t *testing.T) {
	r := rng.New(5)
	const guardBits = 0x7fc0beef
	as := append([]float32{0.37, -2.5}, axpySpecials...)
	for n := 0; n <= 67; n++ {
		for off := 0; off <= 3; off++ {
			for _, a := range as {
				xs := make([]float32, off+n+1)
				ys := make([]float32, off+n+1)
				for i := range xs {
					xs[i], ys[i] = axpyValue(r), axpyValue(r)
				}
				ys[off+n] = math.Float32frombits(guardBits)
				want := append([]float32(nil), ys...)
				axpyGo(a, xs[off:off+n], want[off:off+n+1])
				got := append([]float32(nil), ys...)
				axpy(a, xs[off:off+n], got[off:off+n+1])
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("n=%d off=%d a=%v: y[%d] = %v (%08x), Go loop %v (%08x)",
							n, off, a, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
					}
					if (i < off || i > off+n) && math.Float32bits(got[i]) != math.Float32bits(ys[i]) {
						t.Fatalf("n=%d off=%d: y[%d] outside the run was written", n, off, i)
					}
				}
				if math.Float32bits(got[off+n]) != guardBits {
					t.Fatalf("n=%d off=%d a=%v: guard past len(x) overwritten with %08x", n, off, a, math.Float32bits(got[off+n]))
				}
			}
		}
	}
}

// TestAxpyShortYPanics checks that a y shorter than x panics in Go
// rather than letting the kernel write past it.
func TestAxpyShortYPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("axpy with len(y) < len(x) did not panic")
		}
	}()
	backing := make([]float32, 16)
	axpy(1, make([]float32, 9), backing[:8])
}
