package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewShapeAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 || x.Rank() != 3 || x.Dim(1) != 3 {
		t.Fatalf("bad tensor geometry: %v len=%d", x.Shape, x.Len())
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad FromSlice length")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 2, 1)
	if x.At(2, 1) != 7.5 {
		t.Fatal("At/Set mismatch")
	}
	if x.Data[2*4+1] != 7.5 {
		t.Fatal("row-major layout broken")
	}
}

func TestAtBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected out-of-bounds panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestReshapeSharesData(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, 4)
	y.Data[0] = 42
	if x.Data[0] != 42 {
		t.Fatal("reshape must share backing data")
	}
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Data[0] = 99
	if x.Data[0] != 1 {
		t.Fatal("clone must copy data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 4)
	b := FromSlice([]float32{4, 3, 2, 1}, 4)
	a.Add(b)
	for _, v := range a.Data {
		if v != 5 {
			t.Fatalf("Add wrong: %v", a.Data)
		}
	}
	a.Sub(b)
	want := []float32{1, 2, 3, 4}
	for i, v := range a.Data {
		if v != want[i] {
			t.Fatalf("Sub wrong: %v", a.Data)
		}
	}
	a.Mul(b)
	wantM := []float32{4, 6, 6, 4}
	for i, v := range a.Data {
		if v != wantM[i] {
			t.Fatalf("Mul wrong: %v", a.Data)
		}
	}
	a.Scale(0.5)
	if a.Data[0] != 2 {
		t.Fatalf("Scale wrong: %v", a.Data)
	}
	a.AddScaled(2, b)
	if a.Data[0] != 10 {
		t.Fatalf("AddScaled wrong: %v", a.Data)
	}
}

func TestClampSignNorms(t *testing.T) {
	x := FromSlice([]float32{-3, -0.5, 0, 0.5, 3}, 5)
	c := x.Clone().Clamp(-1, 1)
	want := []float32{-1, -0.5, 0, 0.5, 1}
	for i, v := range c.Data {
		if v != want[i] {
			t.Fatalf("Clamp wrong: %v", c.Data)
		}
	}
	s := x.Clone().Sign()
	wantS := []float32{-1, -1, 0, 1, 1}
	for i, v := range s.Data {
		if v != wantS[i] {
			t.Fatalf("Sign wrong: %v", s.Data)
		}
	}
	if !almostEq(x.LInfNorm(), 3, 1e-9) {
		t.Fatalf("LInfNorm = %v", x.LInfNorm())
	}
	if !almostEq(x.L2Norm(), math.Sqrt(9+0.25+0.25+9), 1e-6) {
		t.Fatalf("L2Norm = %v", x.L2Norm())
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float32{1, -2, 3, -4}, 4)
	if x.Sum() != -2 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if x.Mean() != -0.5 {
		t.Fatalf("Mean = %v", x.Mean())
	}
	if x.AbsMean() != 2.5 {
		t.Fatalf("AbsMean = %v", x.AbsMean())
	}
	if x.Max() != 3 || x.Min() != -4 {
		t.Fatalf("Max/Min = %v/%v", x.Max(), x.Min())
	}
	if x.Argmax() != 2 {
		t.Fatalf("Argmax = %v", x.Argmax())
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range c.Data {
		if v != want[i] {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := rng.New(1)
	a := New(5, 5)
	for i := range a.Data {
		a.Data[i] = r.NormFloat32()
	}
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Data[i*5+i] = 1
	}
	c := MatMul(a, id)
	for i := range c.Data {
		if c.Data[i] != a.Data[i] {
			t.Fatal("A·I != A")
		}
	}
}

// MatMulT(a,b) must equal MatMul(a, Transpose(b)).
func TestMatMulTConsistency(t *testing.T) {
	r := rng.New(2)
	a, b := New(4, 6), New(5, 6)
	for i := range a.Data {
		a.Data[i] = r.NormFloat32()
	}
	for i := range b.Data {
		b.Data[i] = r.NormFloat32()
	}
	got := MatMulT(a, b)
	want := MatMul(a, Transpose(b))
	for i := range got.Data {
		if !almostEq(float64(got.Data[i]), float64(want.Data[i]), 1e-4) {
			t.Fatalf("MatMulT[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TMatMul(a,b) must equal MatMul(Transpose(a), b).
func TestTMatMulConsistency(t *testing.T) {
	r := rng.New(3)
	a, b := New(6, 4), New(6, 5)
	for i := range a.Data {
		a.Data[i] = r.NormFloat32()
	}
	for i := range b.Data {
		b.Data[i] = r.NormFloat32()
	}
	got := TMatMul(a, b)
	want := MatMul(Transpose(a), b)
	for i := range got.Data {
		if !almostEq(float64(got.Data[i]), float64(want.Data[i]), 1e-4) {
			t.Fatalf("TMatMul[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		m := 1 + int(seed%5)
		n := 1 + int((seed>>8)%7)
		a := New(m, n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat32()
		}
		b := Transpose(Transpose(a))
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// naiveConv is a direct convolution used as reference for the im2col path.
func naiveConv(x *Tensor, w *Tensor, g Conv2DGeom, outC int) *Tensor {
	oh, ow := g.OutH(), g.OutW()
	out := New(outC, oh, ow)
	for oc := 0; oc < outC; oc++ {
		for oi := 0; oi < oh; oi++ {
			for oj := 0; oj < ow; oj++ {
				var s float32
				for ic := 0; ic < g.InC; ic++ {
					for ki := 0; ki < g.KH; ki++ {
						for kj := 0; kj < g.KW; kj++ {
							i := oi*g.Stride + ki - g.Pad
							j := oj*g.Stride + kj - g.Pad
							if i < 0 || i >= g.InH || j < 0 || j >= g.InW {
								continue
							}
							wv := w.Data[((oc*g.InC+ic)*g.KH+ki)*g.KW+kj]
							s += wv * x.Data[(ic*g.InH+i)*g.InW+j]
						}
					}
				}
				out.Data[(oc*oh+oi)*ow+oj] = s
			}
		}
	}
	return out
}

func TestIm2ColConvMatchesNaive(t *testing.T) {
	r := rng.New(4)
	for _, tc := range []struct{ c, h, w, kh, kw, stride, pad, outC int }{
		{1, 5, 5, 3, 3, 1, 0, 2},
		{2, 6, 6, 3, 3, 1, 1, 3},
		{3, 8, 7, 3, 3, 2, 1, 4},
		{1, 4, 4, 2, 2, 2, 0, 1},
	} {
		g := Conv2DGeom{InC: tc.c, InH: tc.h, InW: tc.w, KH: tc.kh, KW: tc.kw, Stride: tc.stride, Pad: tc.pad}
		x := New(tc.c, tc.h, tc.w)
		for i := range x.Data {
			x.Data[i] = r.NormFloat32()
		}
		wt := New(tc.outC, tc.c*tc.kh*tc.kw)
		for i := range wt.Data {
			wt.Data[i] = r.NormFloat32()
		}
		cols := Im2Col(x, g)
		got := MatMul(wt, cols) // (outC, oh*ow)
		want := naiveConv(x, wt.Reshape(tc.outC, tc.c, tc.kh, tc.kw), g, tc.outC)
		for i := range got.Data {
			if !almostEq(float64(got.Data[i]), float64(want.Data[i]), 1e-3) {
				t.Fatalf("case %+v: conv[%d]=%v want %v", tc, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// Col2Im must be the adjoint of Im2Col: <Im2Col(x), y> == <x, Col2Im(y)>.
func TestCol2ImAdjoint(t *testing.T) {
	r := rng.New(5)
	g := Conv2DGeom{InC: 2, InH: 6, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 1}
	x := New(g.InC, g.InH, g.InW)
	for i := range x.Data {
		x.Data[i] = r.NormFloat32()
	}
	y := New(g.InC*g.KH*g.KW, g.OutH()*g.OutW())
	for i := range y.Data {
		y.Data[i] = r.NormFloat32()
	}
	lhs := 0.0
	cx := Im2Col(x, g)
	for i := range cx.Data {
		lhs += float64(cx.Data[i]) * float64(y.Data[i])
	}
	rhs := 0.0
	ci := Col2Im(y, g)
	for i := range ci.Data {
		rhs += float64(ci.Data[i]) * float64(x.Data[i])
	}
	if !almostEq(lhs, rhs, 1e-2) {
		t.Fatalf("adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

func TestAvgPool(t *testing.T) {
	x := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4)
	p := AvgPool2D(x, 2)
	want := []float32{3.5, 5.5, 11.5, 13.5}
	for i, v := range p.Data {
		if v != want[i] {
			t.Fatalf("AvgPool = %v, want %v", p.Data, want)
		}
	}
}

func TestAvgPoolBackwardConservesMass(t *testing.T) {
	g := FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	back := AvgPool2DBackward(g, 2, 4, 4)
	if !almostEq(back.Sum(), g.Sum(), 1e-6) {
		t.Fatalf("pool backward mass %v vs %v", back.Sum(), g.Sum())
	}
}

// avgPoolBackwardLoop is AvgPool2DBackwardInto's general loop: zero the
// input-shaped tensor, then add g/n into every in-bounds cell of each
// window.
func avgPoolBackwardLoop(out, grad *Tensor, k int) {
	c, oh, ow := grad.Shape[0], grad.Shape[1], grad.Shape[2]
	h, w := out.Shape[1], out.Shape[2]
	out.Zero()
	for ci := 0; ci < c; ci++ {
		for oi := 0; oi < oh; oi++ {
			for oj := 0; oj < ow; oj++ {
				n := 0
				for di := 0; di < k; di++ {
					for dj := 0; dj < k; dj++ {
						if oi*k+di < h && oj*k+dj < w {
							n++
						}
					}
				}
				g := grad.Data[(ci*oh+oi)*ow+oj] / float32(n)
				for di := 0; di < k; di++ {
					for dj := 0; dj < k; dj++ {
						if i, j := oi*k+di, oj*k+dj; i < h && j < w {
							out.Data[(ci*h+i)*w+j] += g
						}
					}
				}
			}
		}
	}
}

// TestAvgPoolBackwardMatchesLoop pins AvgPool2DBackwardInto, including
// its 2×2 fast path on even planes, to the general loop under
// math.Float32bits, with ±0, NaN, ±Inf and subnormal gradients and an
// output that starts out as NaN so an unwritten cell shows.
func TestAvgPoolBackwardMatchesLoop(t *testing.T) {
	r := rng.New(41)
	specials := []float32{float32(math.Copysign(0, -1)), 0, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), math.SmallestNonzeroFloat32, -3e-39}
	for _, tc := range []struct{ c, h, w, k int }{
		{1, 2, 2, 2}, {3, 4, 6, 2}, {2, 16, 16, 2}, // the fast path
		{2, 5, 5, 2}, {1, 4, 5, 2}, {2, 3, 4, 2}, {2, 6, 6, 3}, {1, 4, 4, 1}, // the general loop
	} {
		oh, ow := (tc.h+tc.k-1)/tc.k, (tc.w+tc.k-1)/tc.k
		grad := New(tc.c, oh, ow)
		for i := range grad.Data {
			if r.Intn(3) == 0 {
				grad.Data[i] = specials[r.Intn(len(specials))]
			} else {
				grad.Data[i] = r.NormFloat32()
			}
		}
		got, want := New(tc.c, tc.h, tc.w), New(tc.c, tc.h, tc.w)
		got.Fill(float32(math.NaN()))
		AvgPool2DBackwardInto(got, grad, tc.k)
		avgPoolBackwardLoop(want, grad, tc.k)
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%+v: cell %d = %v (%#x), loop %v (%#x)", tc, i,
					got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
			}
		}
	}
}

func TestAvgPoolRaggedEdges(t *testing.T) {
	x := New(1, 5, 5)
	x.Fill(2)
	p := AvgPool2D(x, 2)
	if p.Shape[1] != 3 || p.Shape[2] != 3 {
		t.Fatalf("ragged pool shape %v", p.Shape)
	}
	for _, v := range p.Data {
		if v != 2 {
			t.Fatalf("constant input must pool to constant, got %v", p.Data)
		}
	}
	back := AvgPool2DBackward(p, 2, 5, 5)
	if !almostEq(back.Sum(), p.Sum(), 1e-5) {
		t.Fatal("ragged pool backward lost mass")
	}
}

func TestSoftmax(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3}, 3)
	s := Softmax(x)
	if !almostEq(s.Sum(), 1, 1e-6) {
		t.Fatalf("softmax sum %v", s.Sum())
	}
	if !(s.Data[2] > s.Data[1] && s.Data[1] > s.Data[0]) {
		t.Fatalf("softmax not monotone: %v", s.Data)
	}
	// Numerical stability with large logits.
	big := FromSlice([]float32{1000, 1001, 1002}, 3)
	sb := Softmax(big)
	if math.IsNaN(float64(sb.Data[0])) || !almostEq(sb.Sum(), 1, 1e-6) {
		t.Fatalf("softmax unstable: %v", sb.Data)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		x := New(7)
		for i := range x.Data {
			x.Data[i] = r.NormFloat32()
		}
		y := x.Clone()
		for i := range y.Data {
			y.Data[i] += 5
		}
		a, b := Softmax(x), Softmax(y)
		for i := range a.Data {
			if !almostEq(float64(a.Data[i]), float64(b.Data[i]), 1e-5) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func BenchmarkMatMul64(b *testing.B) {
	r := rng.New(1)
	a, c := New(64, 64), New(64, 64)
	for i := range a.Data {
		a.Data[i] = r.NormFloat32()
		c.Data[i] = r.NormFloat32()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = MatMul(a, c)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	g := Conv2DGeom{InC: 8, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	x := New(8, 16, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Im2Col(x, g)
	}
}
