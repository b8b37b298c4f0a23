package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// testPanel quantizes an (n×k) float32 weight matrix to a per-row
// symmetric int8 panel, the quant.Int8Panel layout, without importing
// quant (cycle).
func testPanel(w []float32, n, k int) ([]int8, []float32) {
	codes := make([]int8, n*k)
	steps := make([]float32, n)
	for j := 0; j < n; j++ {
		row := w[j*k : (j+1)*k]
		m := float32(0)
		for _, v := range row {
			if v < 0 {
				v = -v
			}
			if v > m {
				m = v
			}
		}
		step := float32(1)
		if m != 0 {
			step = m / 127
		}
		steps[j] = step
		for p, v := range row {
			q := math.Round(float64(v / step))
			if q > 127 {
				q = 127
			} else if q < -127 {
				q = -127
			}
			codes[j*k+p] = int8(q)
		}
	}
	return codes, steps
}

// int8Ref is the naive reference: quantize each A row, dense int32
// dots, the same epilogue expression.
func int8Ref(dst, a []float32, m, k int, codes []int8, steps []float32, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		maxAbs := float32(0)
		for _, v := range arow {
			if v < 0 {
				v = -v
			}
			if v > maxAbs {
				maxAbs = v
			}
		}
		if maxAbs == 0 {
			for j := 0; j < n; j++ {
				dst[i*n+j] = 0
			}
			continue
		}
		aStep := maxAbs / 127
		q := make([]int32, k)
		for p, v := range arow {
			if v == 0 {
				continue
			}
			r := math.Round(float64(v / aStep))
			if r > 127 {
				r = 127
			} else if r < -127 {
				r = -127
			}
			q[p] = int32(r)
		}
		for j := 0; j < n; j++ {
			var acc int32
			for p := 0; p < k; p++ {
				acc += q[p] * int32(codes[j*k+p])
			}
			dst[i*n+j] = float32(acc) * (aStep * steps[j])
		}
	}
}

func int8Fixture(m, k, n int, density float64, seed uint64) (a, w []float32) {
	s := seed
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(s>>11) / float64(1<<53)
	}
	a = make([]float32, m*k)
	for i := range a {
		if next() < density {
			a[i] = float32(math.Floor(next()*3)) + 1 // spike-like small counts
		}
	}
	w = make([]float32, n*k)
	for i := range w {
		w[i] = float32(next()*2 - 1)
	}
	return a, w
}

func TestMatMulInt8MatchesReference(t *testing.T) {
	defer SetWorkers(0)
	for _, sh := range []struct{ m, k, n int }{
		{1, 8, 3}, {4, 32, 16}, {17, 100, 11}, {64, 288, 32}, {3, 7, 1},
	} {
		a, w := int8Fixture(sh.m, sh.k, sh.n, 0.3, uint64(sh.m*1000+sh.k))
		codes, steps := testPanel(w, sh.n, sh.k)
		want := make([]float32, sh.m*sh.n)
		int8Ref(want, a, sh.m, sh.k, codes, steps, sh.n)
		for _, workers := range []int{1, 2, 4} {
			SetWorkers(workers)
			got := make([]float32, sh.m*sh.n)
			var sc Int8Scratch
			MatMulInt8Into(got, a, sh.m, sh.k, codes, steps, sh.n, &sc)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("m=%d k=%d n=%d workers=%d: [%d] = %v, want %v",
						sh.m, sh.k, sh.n, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// Each output row must be independent of what other rows ride in the
// batch: computing rows one at a time must reproduce the full-batch
// result bit-for-bit. This is what makes the INT8 serving tier
// batch-shape invariant: a window classifies the same in a full batch
// as in a partial one.
func TestMatMulInt8BatchShapeInvariant(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(1)
	const m, k, n = 12, 96, 24
	a, w := int8Fixture(m, k, n, 0.4, 99)
	codes, steps := testPanel(w, n, k)
	full := make([]float32, m*n)
	var sc Int8Scratch
	MatMulInt8Into(full, a, m, k, codes, steps, n, &sc)
	single := make([]float32, n)
	for i := 0; i < m; i++ {
		var sc1 Int8Scratch
		MatMulInt8Into(single, a[i*k:(i+1)*k], 1, k, codes, steps, n, &sc1)
		for j := 0; j < n; j++ {
			if single[j] != full[i*n+j] {
				t.Fatalf("row %d col %d: solo %v vs batched %v", i, j, single[j], full[i*n+j])
			}
		}
	}
}

// The int8 result must track the fake-quantized float32 GEMM within
// the activation-quantization error bound.
func TestMatMulInt8AccuracyBound(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(1)
	const m, k, n = 8, 64, 16
	a, w := int8Fixture(m, k, n, 0.5, 7)
	codes, steps := testPanel(w, n, k)
	got := make([]float32, m*n)
	var sc Int8Scratch
	MatMulInt8Into(got, a, m, k, codes, steps, n, &sc)
	// Reference: dequantized weights against exact activations.
	wq := make([]float32, n*k)
	for j := 0; j < n; j++ {
		for p := 0; p < k; p++ {
			wq[j*k+p] = float32(codes[j*k+p]) * steps[j]
		}
	}
	at := FromSlice(a, m, k)
	wt := FromSlice(wq, n, k)
	ref := MatMulT(at, wt)
	for i := range got {
		diff := math.Abs(float64(got[i] - ref.Data[i]))
		// Activation quantization error: ≤ aStep/2 per nonzero term.
		if diff > 0.05*float64(k) {
			t.Fatalf("[%d] int8 %v vs fakequant %v (diff %v)", i, got[i], ref.Data[i], diff)
		}
	}
}

func TestMatMulInt8ZeroAllocSteadyState(t *testing.T) {
	defer SetWorkers(0)
	const m, k, n = 16, 128, 32
	a, w := int8Fixture(m, k, n, 0.3, 21)
	codes, steps := testPanel(w, n, k)
	dst := make([]float32, m*n)
	for _, workers := range []int{1, 2} {
		SetWorkers(workers)
		var sc Int8Scratch
		MatMulInt8Into(dst, a, m, k, codes, steps, n, &sc) // warm scratch
		allocs := testing.AllocsPerRun(50, func() {
			MatMulInt8Into(dst, a, m, k, codes, steps, n, &sc)
		})
		if allocs != 0 {
			t.Errorf("steady-state MatMulInt8Into at %d workers allocates %v/op, want 0", workers, allocs)
		}
	}
}

// quantizeInt8 must round exactly as math.Round and clamp to ±127:
// checked at every float32 within 8 ulps of each integer and half
// integer in [-130, 130], on random values, and on signed zeros,
// subnormals and infinities.
func TestQuantizeInt8MatchesRound(t *testing.T) {
	ref := func(v float32) int8 {
		return int8(max(-127, min(127, math.Round(float64(v)))))
	}
	check := func(v float32) {
		if got, want := quantizeInt8(v, 1), ref(v); got != want {
			t.Fatalf("quantizeInt8(%v) = %d, want %d", v, got, want)
		}
	}
	for k := -260; k <= 260; k++ {
		v := float32(k) / 2
		for i := 0; i < 8; i++ {
			check(v)
			check(-v)
			v = math.Nextafter32(v, float32(math.Inf(1)))
		}
		v = float32(k) / 2
		for i := 0; i < 8; i++ {
			v = math.Nextafter32(v, float32(math.Inf(-1)))
			check(v)
		}
	}
	r := rng.New(13)
	for i := 0; i < 100000; i++ {
		check(float32(r.Float64()*300 - 150))
		check(r.NormFloat32() * float32(math.Pow(2, float64(r.Intn(40)-30))))
	}
	for _, v := range []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1))} {
		check(v)
	}
}

// transposeCodes turns an (n×k) code panel into the (k×n) layout
// ConvScatterInt8Into reads.
func transposeCodes(codes []int8, n, k int) []int8 {
	out := make([]int8, len(codes))
	for j := 0; j < n; j++ {
		for p := 0; p < k; p++ {
			out[p*n+j] = codes[j*k+p]
		}
	}
	return out
}

// convInt8Inputs returns the sample kinds the int8 conv oracle runs:
// AvgPool levels {¼, ½, ¾, 1} over a range of densities, analog values
// of both signs, an all-zero sample, a single nonzero, and subnormal
// values whose field step underflows to 0, so every code takes the
// ±127 clamp and the epilogue yields signed zeros.
func convInt8Inputs(r *rng.RNG, g Conv2DGeom) map[string]*Tensor {
	shape := []int{g.InC, g.InH, g.InW}
	in := map[string]*Tensor{}
	for _, d := range []float64{0.02, 0.1, 0.35, 1} {
		x := New(shape...)
		for i := range x.Data {
			if r.Float64() < d {
				x.Data[i] = float32(1+r.Intn(4)) / 4
			}
		}
		in[fmt.Sprintf("levels d=%.2f", d)] = x
	}
	for _, d := range []float64{0.1, 0.7} {
		in[fmt.Sprintf("analog d=%.2f", d)] = randSparse(r, d, shape...)
	}
	in["zero"] = New(shape...)
	one := New(shape...)
	one.Data[r.Intn(one.Len())] = r.NormFloat32()
	in["single"] = one
	sub := New(shape...)
	for i := range sub.Data {
		if r.Float64() < 0.3 {
			sub.Data[i] = float32(r.Intn(9)-4) * math.SmallestNonzeroFloat32
		}
	}
	in["subnormal"] = sub
	return in
}

// ConvScatterInt8Into must equal the im2row lowering followed by
// MatMulInt8Into under Float32bits, signed zeros included, over every
// stride, pad, kernel size and channel count the geometry loop covers.
func TestConvScatterInt8MatchesGEMM(t *testing.T) {
	r := rng.New(31)
	nan := float32(math.NaN())
	for _, inC := range []int{1, 2, 3, 8} {
		for _, k := range []int{1, 3, 5} {
			for _, stride := range []int{1, 2} {
				for pad := 0; pad <= 2; pad++ {
					g := Conv2DGeom{InC: inC, InH: 7, InW: 10, KH: k, KW: k, Stride: stride, Pad: pad}
					n, ckk := g.OutH()*g.OutW(), inC*k*k
					for _, outC := range []int{1, 7, 16} {
						w := randSparse(r, 0.8, outC, ckk)
						codes, steps := testPanel(w.Data, outC, ckk)
						codesT := transposeCodes(codes, outC, ckk)
						for name, x := range convInt8Inputs(r, g) {
							want := make([]float32, n*outC)
							var sc Int8Scratch
							MatMulInt8Into(want, Im2Row(x, g).Data, n, ckk, codes, steps, outC, &sc)
							got := make([]float32, n*outC)
							for i := range got {
								got[i] = nan
							}
							ConvScatterInt8Into(got, x, codesT, steps, outC, g, make([]float32, n), make([]int32, n*outC))
							for i := range want {
								if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
									t.Fatalf("%+v outC=%d %s: (%d,%d) = %v, im2row int8 GEMM %v",
										g, outC, name, i/outC, i%outC, got[i], want[i])
								}
							}
						}
					}
				}
			}
		}
	}
}

func TestConvScatterInt8ZeroAlloc(t *testing.T) {
	r := rng.New(5)
	g := Conv2DGeom{InC: 8, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	const outC = 16
	n, ckk := g.OutH()*g.OutW(), g.InC*g.KH*g.KW
	codes, steps := testPanel(randSparse(r, 1, outC, ckk).Data, outC, ckk)
	codesT := transposeCodes(codes, outC, ckk)
	x := randSparse(r, 0.2, g.InC, g.InH, g.InW)
	dst, fieldStep, acc := make([]float32, n*outC), make([]float32, n), make([]int32, n*outC)
	allocs := testing.AllocsPerRun(50, func() {
		ConvScatterInt8Into(dst, x, codesT, steps, outC, g, fieldStep, acc)
	})
	if allocs != 0 {
		t.Errorf("ConvScatterInt8Into allocates %v/op, want 0", allocs)
	}
}

func BenchmarkGEMMInt8(b *testing.B) {
	defer SetWorkers(0)
	SetWorkers(1)
	const m, k, n = 64, 288, 32 // the batched conv-lowering shape of BenchmarkGEMM
	a, w := int8Fixture(m, k, n, 0.3, 3)
	codes, steps := testPanel(w, n, k)
	dst := make([]float32, m*n)
	var sc Int8Scratch
	MatMulInt8Into(dst, a, m, k, codes, steps, n, &sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInt8Into(dst, a, m, k, codes, steps, n, &sc)
	}
}
