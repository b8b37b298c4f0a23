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

// matMul is MatMulInto into a fresh tensor.
func matMul(a, b *Tensor) *Tensor {
	c := New(a.Shape[0], b.Shape[1])
	MatMulInto(c, a, b)
	return c
}

// transpose is TransposeInto into a fresh tensor.
func transpose(a *Tensor) *Tensor {
	t := New(a.Shape[1], a.Shape[0])
	TransposeInto(t, a)
	return t
}

// im2row lowers a (C,H,W) input to its (OutH*OutW, C*KH*KW)
// receptive-field rows, zero in the padding: the lowering the scatter
// kernels are tested against.
func im2row(x *Tensor, g Conv2DGeom) *Tensor {
	n, ckk := g.OutH()*g.OutW(), g.InC*g.KH*g.KW
	rows := New(n, ckk)
	for j := 0; j < n; j++ {
		for p := 0; p < ckk; p++ {
			c, ki, kj := p/(g.KH*g.KW), p/g.KW%g.KH, p%g.KW
			si, sj := j/g.OutW()*g.Stride+ki-g.Pad, j%g.OutW()*g.Stride+kj-g.Pad
			if si >= 0 && si < g.InH && sj >= 0 && sj < g.InW {
				rows.Data[j*ckk+p] = x.Data[(c*g.InH+si)*g.InW+sj]
			}
		}
	}
	return rows
}

// im2col is the (C*KH*KW, OutH*OutW) transpose of im2row.
func im2col(x *Tensor, g Conv2DGeom) *Tensor { return transpose(im2row(x, g)) }

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
				got := matMul(a, b)
				want := refMatMul(a, b)
				if diff := maxAbsDiff(got, want); diff > 1e-5*float64(cs.k) {
					t.Fatalf("workers=%d %v d=%.2f: MatMulInto diff %g", workers, cs, d, diff)
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
				got := New(cs.m, cs.n)
				TMatMulInto(got, a, b)
				want := refTMatMul(a, b)
				if diff := maxAbsDiff(got, want); diff > 1e-5*float64(cs.k) {
					t.Fatalf("workers=%d %v d=%.2f: TMatMulInto diff %g", workers, cs, d, diff)
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
}

// TestIntoVariantsMatch pins the Into forms over stale destination
// contents bit-for-bit to the same kernels run onto zeros: the stale
// contents must vanish.
func TestIntoVariantsMatch(t *testing.T) {
	r := rng.New(24)
	for _, c := range gemmCases {
		for _, density := range densities {
			a := randSparse(r, density, c.k, c.m)
			b := randSparse(r, density, c.k, c.n)
			want := New(c.m, c.n)
			TMatMulAcc(want, a, b)
			dst := randSparse(r, 1, c.m, c.n) // stale contents
			TMatMulInto(dst, a, b)
			for i := range want.Data {
				if dst.Data[i] != want.Data[i] {
					t.Fatalf("TMatMulInto (%v, d=%.2f) differs at %d", c, density, i)
				}
			}

			a2 := randSparse(r, density, c.m, c.k)
			b2 := randSparse(r, density, c.k, c.n)
			want2 := matMul(a2, b2)
			dst2 := randSparse(r, 1, c.m, c.n)
			MatMulInto(dst2, a2, b2)
			for i := range want2.Data {
				if dst2.Data[i] != want2.Data[i] {
					t.Fatalf("MatMulInto (%v, d=%.2f) differs at %d", c, density, i)
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
// contract: every kernel is serial, so MatMulInto and the TMatMul
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
		names = append(names, "MatMulInto")
		outs = append(outs, matMul(a, b))
		for _, c := range narrows {
			acc := c.acc.Clone()
			TMatMulAcc(acc, c.a, c.b)
			into := randSparse(r, 1, c.acc.Shape...) // stale contents must be overwritten
			TMatMulInto(into, c.a, c.b)
			names = append(names, fmt.Sprintf("TMatMulAcc %v", c.acc.Shape), fmt.Sprintf("TMatMulInto %v", c.acc.Shape))
			outs = append(outs, acc, into)
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

// TestConvScatterMatchesGEMM pins the event-driven convolution, fed the
// tap-reversed panel ConvScatterWeightsInto builds, to both GEMM
// lowerings: bit for bit against im2row(x)·Wᵀ, whose terms it adds in
// the same order, and under == (±0 alike) against W·im2col(x), which
// skips zero weights where the scatter skips zero inputs. The weights carry -0 entries, as a masked negative weight
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
						wT := transpose(w)
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
								rows := matMul(im2row(x, g), wT)
								cols := matMul(w, im2col(x, g))
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
// gradient to the GEMM over the im2col lowering, over
// TestConvScatterMatchesGEMM's geometries, channel counts, densities
// and levels: samples scattered in order into one zeroed tap-reversed
// panel, then folded into dW by AddConvScatterWeights, must add to each
// dW[oc, p] the float32 dot product, in ascending k, of g2B's row oc
// and cols' row p, bit for bit, with cols the batch's im2col panels
// side by side and g2B its (outC, B·N) output gradient. The gradients
// carry ±0 entries, and dW starts out holding nonzero values, as it
// does across time steps.
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
										for p, v := range im2col(sample, g).Data {
											cols.Data[p/n*batch*n+b*n+p%n] = v
										}
										ConvWeightGradScatterAcc(dR.Data, sample, gT.Data[b*n*outC:(b+1)*n*outC], outC, g)
									}
									AddConvScatterWeights(got, dR, g)
									for oc := 0; oc < outC; oc++ {
										for p := 0; p < ckk; p++ {
											var s float32
											for k, v := range g2B.Data[oc*batch*n : (oc+1)*batch*n] {
												s += float32(v * cols.Data[p*batch*n+k])
											}
											want.Data[oc*ckk+p] += s
										}
									}
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

// BenchmarkGEMM measures the blocked serial MatMulInto, the GEMM the
// dense layers run on (B, In)·(In, Out), here on a (32×288)·(288×2048)
// panel whose right operand is 30% ones.
func BenchmarkGEMM(b *testing.B) {
	r := rng.New(3)
	w := New(32, 288)
	for i := range w.Data {
		w.Data[i] = r.NormFloat32()
	}
	cols := New(288, 2048)
	for i := range cols.Data {
		if r.Float64() < 0.3 {
			cols.Data[i] = 1
		}
	}
	dst := New(32, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, w, cols)
	}
}
