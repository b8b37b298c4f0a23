package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// Naive reference kernels: the textbook triple loops, no blocking, no
// skip-zero fast paths, float64 accumulation. The production kernels
// must match these within tolerance across every shape and sparsity.

func refMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += float64(a.Data[i*k+p]) * float64(b.Data[p*n+j])
			}
			c.Data[i*n+j] = float32(s)
		}
	}
	return c
}

func refMatMulT(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += float64(a.Data[i*k+p]) * float64(b.Data[j*k+p])
			}
			c.Data[i*n+j] = float32(s)
		}
	}
	return c
}

func refTMatMul(a, b *Tensor) *Tensor {
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += float64(a.Data[p*m+i]) * float64(b.Data[p*n+j])
			}
			c.Data[i*n+j] = float32(s)
		}
	}
	return c
}

// randSparse fills a tensor with N(0,1) values at the given density
// (density 0 gives the all-zero tensor, exercising pure skip paths).
func randSparse(r *rng.RNG, density float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		if r.Float64() < density {
			t.Data[i] = r.NormFloat32()
		}
	}
	return t
}

func maxAbsDiff(a, b *Tensor) float64 {
	d := 0.0
	for i := range a.Data {
		v := math.Abs(float64(a.Data[i] - b.Data[i]))
		if v > d {
			d = v
		}
	}
	return d
}

// gemmCases covers the shape corners the kernels special-case: m=1,
// k=1, n=1, tiny panels below the parallel threshold, panels above it,
// and panels wider/taller than the cache blocks.
var gemmCases = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 5},
	{3, 1, 9},
	{5, 4, 1},
	{2, 300, 3},
	{64, 54, 12},
	{12, 54, 64},
	{17, 260, 40},   // k beyond gemmKC
	{9, 33, 1100},   // n beyond gemmNC
	{130, 257, 70},  // k beyond gemmKC with many rows
	{200, 16, 1200}, // n beyond gemmNC with many rows
}

var densities = []float64{0, 0.05, 0.4, 1}

func TestMatMulMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		r := rng.New(11)
		for _, cs := range gemmCases {
			for _, d := range densities {
				a := randSparse(r, d, cs.m, cs.k)
				b := randSparse(r, 0.7, cs.k, cs.n)
				got := MatMul(a, b)
				want := refMatMul(a, b)
				if diff := maxAbsDiff(got, want); diff > 1e-5*float64(cs.k) {
					t.Fatalf("workers=%d %v d=%.2f: MatMul diff %g", workers, cs, d, diff)
				}
			}
		}
	}
	SetWorkers(0)
}

func TestMatMulTMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		r := rng.New(12)
		for _, cs := range gemmCases {
			for _, d := range densities {
				a := randSparse(r, d, cs.m, cs.k)
				b := randSparse(r, 0.7, cs.n, cs.k)
				got := MatMulT(a, b)
				want := refMatMulT(a, b)
				if diff := maxAbsDiff(got, want); diff > 1e-5*float64(cs.k) {
					t.Fatalf("workers=%d %v d=%.2f: MatMulT diff %g", workers, cs, d, diff)
				}
			}
		}
	}
	SetWorkers(0)
}

func TestTMatMulMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		r := rng.New(13)
		for _, cs := range gemmCases {
			for _, d := range densities {
				a := randSparse(r, d, cs.k, cs.m)
				b := randSparse(r, 0.7, cs.k, cs.n)
				got := TMatMul(a, b)
				want := refTMatMul(a, b)
				if diff := maxAbsDiff(got, want); diff > 1e-5*float64(cs.k) {
					t.Fatalf("workers=%d %v d=%.2f: TMatMul diff %g", workers, cs, d, diff)
				}
			}
		}
	}
	SetWorkers(0)
}

func TestAccVariantsAccumulate(t *testing.T) {
	r := rng.New(14)
	a := randSparse(r, 0.5, 23, 17)
	b := randSparse(r, 0.5, 23, 31)
	dst := randSparse(r, 1, 17, 31)
	want := dst.Clone().Add(refTMatMul(a, b))
	TMatMulAcc(dst, a, b)
	if diff := maxAbsDiff(dst, want); diff > 1e-4 {
		t.Fatalf("TMatMulAcc diff %g", diff)
	}

	a2 := randSparse(r, 0.5, 9, 40)
	b2 := randSparse(r, 0.5, 13, 40)
	dst2 := randSparse(r, 1, 9, 13)
	want2 := dst2.Clone().Add(refMatMulT(a2, b2))
	MatMulTAcc(dst2, a2, b2)
	if diff := maxAbsDiff(dst2, want2); diff > 1e-4 {
		t.Fatalf("MatMulTAcc diff %g", diff)
	}
}

// TestIntoVariantsMatch pins the Into forms to their allocating
// originals bit-for-bit: they share kernels, so even stale destination
// contents must vanish.
func TestIntoVariantsMatch(t *testing.T) {
	r := rng.New(24)
	for _, c := range gemmCases {
		for _, density := range densities {
			a := randSparse(r, density, c.k, c.m)
			b := randSparse(r, density, c.k, c.n)
			want := TMatMul(a, b)
			dst := randSparse(r, 1, c.m, c.n) // stale contents
			TMatMulInto(dst, a, b)
			for i := range want.Data {
				if dst.Data[i] != want.Data[i] {
					t.Fatalf("TMatMulInto (%v, d=%.2f) differs at %d", c, density, i)
				}
			}

			a2 := randSparse(r, density, c.m, c.k)
			b2 := randSparse(r, density, c.n, c.k)
			wantT := MatMulT(a2, b2)
			dstT := randSparse(r, 1, c.m, c.n)
			MatMulTInto(dstT, a2, b2)
			for i := range wantT.Data {
				if dstT.Data[i] != wantT.Data[i] {
					t.Fatalf("MatMulTInto (%v, d=%.2f) differs at %d", c, density, i)
				}
			}
		}
	}
}

func TestAddTransposed(t *testing.T) {
	r := rng.New(15)
	o := randSparse(r, 1, 4, 6)
	dst := New(6, 4)
	dst.AddTransposed(o)
	for i := 0; i < 6; i++ {
		for j := 0; j < 4; j++ {
			if dst.Data[i*4+j] != o.Data[j*6+i] {
				t.Fatalf("AddTransposed mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// TestSingleWorkerBitIdentical pins the worker-count determinism
// contract: every kernel is serial, so MatMul, MatMulT and the TMatMul
// family must produce byte-for-byte the same results at any SetWorkers
// budget. The narrow TMatMul outputs (n < 4·workers, k·m·n >= 2¹⁵) are
// the shapes a parallel k-split reduction would round differently.
func TestSingleWorkerBitIdentical(t *testing.T) {
	defer SetWorkers(0)
	r := rng.New(16)
	a := randSparse(r, 0.4, 37, 301)
	b := randSparse(r, 0.6, 301, 43)
	type narrow struct{ a, b, acc *Tensor }
	var narrows []narrow
	for _, s := range []struct{ k, m, n int }{{512, 64, 2}, {512, 32, 4}} {
		narrows = append(narrows, narrow{randSparse(r, 0.4, s.k, s.m), randSparse(r, 0.6, s.k, s.n), randSparse(r, 1, s.m, s.n)})
	}
	run := func() (names []string, outs []*Tensor) {
		names = append(names, "MatMul", "MatMulT")
		outs = append(outs, MatMul(a, b), MatMulT(a, Transpose(b)))
		for _, c := range narrows {
			acc := c.acc.Clone()
			TMatMulAcc(acc, c.a, c.b)
			into := randSparse(r, 1, c.acc.Shape...) // stale contents must be overwritten
			TMatMulInto(into, c.a, c.b)
			names = append(names, fmt.Sprintf("TMatMul %v", c.acc.Shape), fmt.Sprintf("TMatMulAcc %v", c.acc.Shape), fmt.Sprintf("TMatMulInto %v", c.acc.Shape))
			outs = append(outs, TMatMul(c.a, c.b), acc, into)
		}
		return names, outs
	}
	SetWorkers(1)
	names, want := run()
	for _, workers := range []int{2, 4, 8} {
		SetWorkers(workers)
		_, got := run()
		for i := range got {
			for j := range got[i].Data {
				if got[i].Data[j] != want[i].Data[j] {
					t.Fatalf("%s at %d workers not bit-identical at %d: %v vs %v", names[i], workers, j, got[i].Data[j], want[i].Data[j])
				}
			}
		}
	}
}

// TestIm2ColStripeScatterMatchesDense drives Im2ColStripeInto across
// the density crossover (the sparse scatter path vs the dense gather)
// and both stripe layouts, pinning the panel to the allocating Im2Col.
func TestIm2ColStripeScatterMatchesDense(t *testing.T) {
	r := rng.New(26)
	geoms := []Conv2DGeom{
		{InC: 2, InH: 7, InW: 7, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 3, InH: 8, InW: 6, KH: 3, KW: 3, Stride: 2, Pad: 0},
		{InC: 1, InH: 5, InW: 5, KH: 2, KW: 2, Stride: 1, Pad: 2},
	}
	for _, g := range geoms {
		for _, density := range densities {
			x := randSparse(r, density, g.InC, g.InH, g.InW)
			want := Im2Col(x, g)
			n := g.OutH() * g.OutW()
			ckk := g.InC * g.KH * g.KW
			// Single-sample layout, stale destination.
			dst := randSparse(r, 1, ckk*n)
			Im2ColStripeInto(dst.Data, n, 0, x, g)
			for i := range want.Data {
				if dst.Data[i] != want.Data[i] {
					t.Fatalf("stripe (%+v, d=%.2f) differs at %d", g, density, i)
				}
			}
			// Batched layout: stripe 1 of 3, neighbours untouched.
			batchDst := randSparse(r, 1, ckk*3*n)
			before := batchDst.Clone()
			Im2ColStripeInto(batchDst.Data, 3*n, n, x, g)
			for row := 0; row < ckk; row++ {
				for j := 0; j < 3*n; j++ {
					got := batchDst.Data[row*3*n+j]
					if j >= n && j < 2*n {
						if got != want.Data[row*n+j-n] {
							t.Fatalf("batched stripe (%+v, d=%.2f) differs at row %d col %d", g, density, row, j)
						}
					} else if got != before.Data[row*3*n+j] {
						t.Fatalf("stripe (%+v, d=%.2f) clobbered neighbour at row %d col %d", g, density, row, j)
					}
				}
			}
		}
	}
}

func TestIm2RowMatchesIm2Col(t *testing.T) {
	r := rng.New(17)
	geoms := []Conv2DGeom{
		{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 3, InH: 9, InW: 7, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{InC: 2, InH: 6, InW: 6, KH: 2, KW: 2, Stride: 2, Pad: 0},
	}
	for _, g := range geoms {
		for _, d := range []float64{0, 0.1, 0.9} {
			x := randSparse(r, d, g.InC, g.InH, g.InW)
			cols := Im2Col(x, g)
			rows := Im2Row(x, g)
			ckk := g.InC * g.KH * g.KW
			n := g.OutH() * g.OutW()
			for p := 0; p < ckk; p++ {
				for j := 0; j < n; j++ {
					if cols.Data[p*n+j] != rows.Data[j*ckk+p] {
						t.Fatalf("geom %+v d=%.1f: im2row(%d,%d) != im2col(%d,%d)", g, d, j, p, p, j)
					}
				}
			}
			// The strided stripe form must agree with plain Im2Col.
			stripe := make([]float32, ckk*n)
			Im2ColStripeInto(stripe, n, 0, x, g)
			for i := range stripe {
				if stripe[i] != cols.Data[i] {
					t.Fatalf("geom %+v: Im2ColStripeInto differs at %d", g, i)
				}
			}
		}
	}
}

// TestConvScatterMatchesGEMM pins the event-driven convolution, fed the
// tap-reversed panel ConvScatterWeightsInto builds, to both GEMM
// lowerings it replaces: bit for bit against Im2Row(x)·Wᵀ, whose terms
// it adds in the same order, and under == (±0 alike) against
// W·Im2Col(x), which skips zero weights where the scatter skips zero
// inputs. The weights carry -0 entries, as a masked negative weight
// does, and dst starts out as NaN so an uncleared cell shows.
func TestConvScatterMatchesGEMM(t *testing.T) {
	r := rng.New(27)
	negZero := float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	for inC := 1; inC <= 3; inC++ {
		for _, k := range [][2]int{{3, 3}, {1, 1}, {5, 3}} {
			for _, stride := range []int{1, 2} {
				for pad := 0; pad <= 2; pad++ {
					g := Conv2DGeom{InC: inC, InH: 3 + 2*inC, InW: 11 - 2*inC, KH: k[0], KW: k[1], Stride: stride, Pad: pad}
					n := g.OutH() * g.OutW()
					ckk := inC * g.KH * g.KW
					for _, outC := range []int{1, 6, 17} {
						w := randSparse(r, 1, outC, ckk)
						for i := range w.Data {
							switch r.Intn(5) {
							case 0:
								w.Data[i] = negZero
							case 1:
								w.Data[i] = 0
							}
						}
						wT := Transpose(w)
						wR := New(ckk, outC)
						ConvScatterWeightsInto(wR, w, g)
						for _, density := range []float64{0, 0.02, 0.1, 0.5, 1} {
							for _, levels := range []bool{false, true} {
								x := randSparse(r, density, inC, g.InH, g.InW)
								if levels {
									for i, v := range x.Data {
										if v != 0 {
											x.Data[i] = float32(1+r.Intn(4)) / 4
										}
									}
								}
								dst := make([]float32, n*outC)
								for i := range dst {
									dst[i] = nan
								}
								ConvScatterInto(dst, x, wR.Data, outC, g)
								rows := MatMul(Im2Row(x, g), wT)
								cols := MatMul(w, Im2Col(x, g))
								for j := 0; j < n; j++ {
									for oc := 0; oc < outC; oc++ {
										got := dst[j*outC+oc]
										if math.Float32bits(got) != math.Float32bits(rows.Data[j*outC+oc]) {
											t.Fatalf("%+v outC=%d d=%.2f levels=%v: (%d,%d) = %v, im2row GEMM %v",
												g, outC, density, levels, j, oc, got, rows.Data[j*outC+oc])
										}
										if got != cols.Data[oc*n+j] {
											t.Fatalf("%+v outC=%d d=%.2f levels=%v: (%d,%d) = %v, im2col GEMM %v",
												g, outC, density, levels, j, oc, got, cols.Data[oc*n+j])
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestConvWeightGradScatterMatchesGEMM pins the input-driven weight
// gradient to the GEMM it replaces, over TestConvScatterMatchesGEMM's
// geometries, channel counts, densities and levels: samples scattered
// in order into one zeroed tap-reversed panel, then folded into dW by
// AddConvScatterWeights, must equal MatMulTAcc(dW, g2B, cols) bit for
// bit, with cols the batch stacked by Im2ColStripeInto and g2B its
// (outC, B·N) output gradient. The gradients carry ±0 entries, and dW
// starts out holding nonzero values, as it does across time steps.
func TestConvWeightGradScatterMatchesGEMM(t *testing.T) {
	r := rng.New(29)
	negZero := float32(math.Copysign(0, -1))
	for inC := 1; inC <= 3; inC++ {
		for _, k := range [][2]int{{3, 3}, {1, 1}, {5, 3}} {
			for _, stride := range []int{1, 2} {
				for pad := 0; pad <= 2; pad++ {
					g := Conv2DGeom{InC: inC, InH: 3 + 2*inC, InW: 11 - 2*inC, KH: k[0], KW: k[1], Stride: stride, Pad: pad}
					n := g.OutH() * g.OutW()
					ckk := inC * g.KH * g.KW
					chw := inC * g.InH * g.InW
					for _, outC := range []int{1, 6, 17} {
						for _, batch := range []int{1, 3} {
							g2B := randSparse(r, 1, outC, batch*n)
							for i := range g2B.Data {
								switch r.Intn(6) {
								case 0:
									g2B.Data[i] = negZero
								case 1:
									g2B.Data[i] = 0
								}
							}
							gT := New(batch*n, outC)
							for oc := 0; oc < outC; oc++ {
								for j := 0; j < batch*n; j++ {
									gT.Data[j*outC+oc] = g2B.Data[oc*batch*n+j]
								}
							}
							for _, density := range []float64{0, 0.02, 0.1, 0.5, 1} {
								for _, levels := range []bool{false, true} {
									x := randSparse(r, density, batch, inC, g.InH, g.InW)
									if levels {
										for i, v := range x.Data {
											if v != 0 {
												x.Data[i] = float32(1+r.Intn(4)) / 4
											}
										}
									}
									want := randSparse(r, 1, outC, ckk)
									got := want.Clone()
									cols := New(ckk, batch*n)
									dR := New(ckk, outC)
									for b := 0; b < batch; b++ {
										sample := FromSlice(x.Data[b*chw:(b+1)*chw], inC, g.InH, g.InW)
										Im2ColStripeInto(cols.Data, batch*n, b*n, sample, g)
										ConvWeightGradScatterAcc(dR.Data, sample, gT.Data[b*n*outC:(b+1)*n*outC], outC, g)
									}
									AddConvScatterWeights(got, dR, g)
									MatMulTAcc(want, g2B, cols)
									for i := range want.Data {
										if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
											t.Fatalf("%+v outC=%d batch=%d d=%.2f levels=%v: dW[%d,%d] = %v, GEMM %v",
												g, outC, batch, density, levels, i/ckk, i%ckk, got.Data[i], want.Data[i])
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestCol2ImStride1MatchesLoop pins Col2ImStripeInto's stride-1 runs to
// the per-element scatter-add they replace, under math.Float32bits,
// over pads 0–2, kernels 1, 3 and 5, inputs narrower than the kernel,
// a stripe inside a wider batched matrix (colOff > 0) and an x that
// already holds values, with signed zeros, subnormals and large
// magnitudes among the terms.
func TestCol2ImStride1MatchesLoop(t *testing.T) {
	r := rng.New(33)
	specials := []float32{float32(math.Copysign(0, -1)), 0, math.SmallestNonzeroFloat32, -3e-39, 1e30, -1e30}
	val := func() float32 {
		if r.Intn(4) == 0 {
			return specials[r.Intn(len(specials))]
		}
		return (r.Float32() - 0.5) * 4
	}
	for _, k := range []int{1, 3, 5} {
		for pad := 0; pad <= 2; pad++ {
			for _, hw := range [][2]int{{6, 7}, {3, 2}, {1, 5}} {
				g := Conv2DGeom{InC: 2, InH: hw[0], InW: hw[1], KH: k, KW: k, Stride: 1, Pad: pad}
				oh, ow := g.OutH(), g.OutW()
				if oh <= 0 || ow <= 0 {
					continue
				}
				n, ckk := oh*ow, g.InC*k*k
				for _, colOff := range []int{0, n, 2*n + 3} {
					rowStride := colOff + n + 2
					src := make([]float32, ckk*rowStride)
					for i := range src {
						src[i] = val()
					}
					got := New(g.InC, g.InH, g.InW)
					for i := range got.Data {
						got.Data[i] = val()
					}
					want := got.Clone()
					Col2ImStripeInto(got, src, rowStride, colOff, g)
					row := 0
					for c := 0; c < g.InC; c++ {
						for ki := 0; ki < k; ki++ {
							for kj := 0; kj < k; kj++ {
								for oi := 0; oi < oh; oi++ {
									for oj := 0; oj < ow; oj++ {
										si, sj := oi+ki-pad, oj+kj-pad
										if si >= 0 && si < g.InH && sj >= 0 && sj < g.InW {
											want.Data[(c*g.InH+si)*g.InW+sj] += src[row*rowStride+colOff+oi*ow+oj]
										}
									}
								}
								row++
							}
						}
					}
					for i, v := range got.Data {
						if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
							t.Fatalf("%+v colOff=%d: x[%d] = %v (%08x), loop %v (%08x)",
								g, colOff, i, v, math.Float32bits(v), want.Data[i], math.Float32bits(want.Data[i]))
						}
					}
				}
			}
		}
	}
}
