// Package tensor implements dense float32 N-dimensional arrays and the
// small set of kernels the SNN substrate needs: matrix multiplication,
// the event-driven convolution, pooling, the LIF neuron step and
// elementwise arithmetic.
//
// Tensors are row-major. The package favours explicit shapes and fails
// loudly (panics) on shape mismatches: inside this repository a mismatch is
// always a programming error, never an input error.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float32 array with an explicit shape.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New returns a zero-filled tensor of the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in %v", d, shape)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is not
// copied; it must have exactly the product of shape elements.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (=%d)", len(data), shape, n)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Dim returns the size of axis i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Rank returns the number of axes.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view with a new shape covering the same data.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.Shape, shape)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// At returns the element at the given multi-index (rank must match).
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d vs shape %v", len(idx), t.Shape)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for %v", idx, t.Shape)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// SameShape reports whether two tensors have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

func mustSameShape(op string, a, b *Tensor) {
	if !SameShape(a, b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.Shape, b.Shape)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero resets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// Add accumulates o into t elementwise.
func (t *Tensor) Add(o *Tensor) *Tensor {
	mustSameShape("Add", t, o)
	for i, v := range o.Data {
		t.Data[i] += v
	}
	return t
}

// Sub subtracts o from t elementwise.
func (t *Tensor) Sub(o *Tensor) *Tensor {
	mustSameShape("Sub", t, o)
	for i, v := range o.Data {
		t.Data[i] -= v
	}
	return t
}

// Mul multiplies t by o elementwise (Hadamard).
func (t *Tensor) Mul(o *Tensor) *Tensor {
	mustSameShape("Mul", t, o)
	for i, v := range o.Data {
		t.Data[i] *= v
	}
	return t
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float32) *Tensor {
	for i := range t.Data {
		t.Data[i] *= s
	}
	return t
}

// AddScaled accumulates s*o into t (axpy).
func (t *Tensor) AddScaled(s float32, o *Tensor) *Tensor {
	mustSameShape("AddScaled", t, o)
	for i, v := range o.Data {
		t.Data[i] += float32(s * v)
	}
	return t
}

// Clamp limits every element to [lo, hi].
func (t *Tensor) Clamp(lo, hi float32) *Tensor {
	for i, v := range t.Data {
		if v < lo {
			t.Data[i] = lo
		} else if v > hi {
			t.Data[i] = hi
		}
	}
	return t
}

// Sum returns the float64 sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// AbsMean returns the mean of |x| (0 for empty tensors).
func (t *Tensor) AbsMean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range t.Data {
		s += math.Abs(float64(v))
	}
	return s / float64(len(t.Data))
}

// Max returns the maximum element; -Inf for empty tensors.
func (t *Tensor) Max() float32 {
	m := float32(math.Inf(-1))
	for _, v := range t.Data {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element; +Inf for empty tensors.
func (t *Tensor) Min() float32 {
	m := float32(math.Inf(1))
	for _, v := range t.Data {
		if v < m {
			m = v
		}
	}
	return m
}

// Argmax returns the index of the first maximal element (-1 if empty).
func (t *Tensor) Argmax() int {
	if len(t.Data) == 0 {
		return -1
	}
	best, bi := t.Data[0], 0
	for i, v := range t.Data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// L2Norm returns the Euclidean norm of the flattened tensor.
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(float64(v) * float64(v))
	}
	return math.Sqrt(s)
}

// LInfNorm returns max |x|.
func (t *Tensor) LInfNorm() float64 {
	m := 0.0
	for _, v := range t.Data {
		a := math.Abs(float64(v))
		if a > m {
			m = a
		}
	}
	return m
}

// Sign replaces each element with -1, 0 or +1.
func (t *Tensor) Sign() *Tensor {
	for i, v := range t.Data {
		switch {
		case v > 0:
			t.Data[i] = 1
		case v < 0:
			t.Data[i] = -1
		default:
			t.Data[i] = 0
		}
	}
	return t
}

// TransposeInto writes aᵀ into the caller-owned (n,m) tensor dst,
// overwriting its contents (the allocation-free form).
func TransposeInto(dst, a *Tensor) {
	if a.Rank() != 2 || dst.Rank() != 2 || dst.Shape[0] != a.Shape[1] || dst.Shape[1] != a.Shape[0] {
		panic(fmt.Sprintf("tensor: TransposeInto %v ← %vᵀ", dst.Shape, a.Shape)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	m, n := a.Shape[0], a.Shape[1]
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		for j, v := range row {
			dst.Data[j*m+i] = v
		}
	}
}

// Conv2DGeom describes a 2-D convolution geometry shared by the forward
// lowering and its transpose.
type Conv2DGeom struct {
	InC, InH, InW int
	KH, KW        int
	Stride, Pad   int
}

// OutH returns the output height of the geometry.
func (g Conv2DGeom) OutH() int { return (g.InH+2*g.Pad-g.KH)/g.Stride + 1 }

// OutW returns the output width of the geometry.
func (g Conv2DGeom) OutW() int { return (g.InW+2*g.Pad-g.KW)/g.Stride + 1 }

// AvgPool2DInto performs non-overlapping average pooling with window k
// of the (C,H,W) tensor x into the caller-owned (C,OutH,OutW) tensor
// out, overwriting every element. H and W need not be multiples of k;
// edge windows shrink.
func AvgPool2DInto(out, x *Tensor, k int) {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oh, ow := (h+k-1)/k, (w+k-1)/k
	if out.Rank() != 3 || out.Shape[0] != c || out.Shape[1] != oh || out.Shape[2] != ow {
		panic(fmt.Sprintf("tensor: AvgPool2DInto dst %v, want [%d %d %d]", out.Shape, c, oh, ow)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	if k == 2 && h%2 == 0 && w%2 == 0 {
		// The common 2×2 window on even planes: no edge handling, no
		// per-window division loop.
		for ci := 0; ci < c; ci++ {
			plane := x.Data[ci*h*w : (ci+1)*h*w]
			dst := out.Data[ci*oh*ow : (ci+1)*oh*ow]
			for oi := 0; oi < oh; oi++ {
				top := plane[2*oi*w : (2*oi+1)*w]
				bot := plane[(2*oi+1)*w : (2*oi+2)*w]
				row := dst[oi*ow : (oi+1)*ow]
				for oj := range row {
					row[oj] = (top[2*oj] + top[2*oj+1] + bot[2*oj] + bot[2*oj+1]) * 0.25
				}
			}
		}
		return
	}
	for ci := 0; ci < c; ci++ {
		for oi := 0; oi < oh; oi++ {
			for oj := 0; oj < ow; oj++ {
				var s float32
				n := 0
				for di := 0; di < k; di++ {
					for dj := 0; dj < k; dj++ {
						i, j := oi*k+di, oj*k+dj
						if i < h && j < w {
							s += x.Data[(ci*h+i)*w+j]
							n++
						}
					}
				}
				out.Data[(ci*oh+oi)*ow+oj] = s / float32(n)
			}
		}
	}
}

// AvgPool2DBackwardInto scatters the pooled gradient back to input
// resolution, into the caller-owned (C,H,W) tensor out, overwriting
// its contents: each window's gradient spreads evenly over its cells.
func AvgPool2DBackwardInto(out, grad *Tensor, k int) {
	c, oh, ow := grad.Shape[0], grad.Shape[1], grad.Shape[2]
	if out.Rank() != 3 || out.Shape[0] != c {
		panic(fmt.Sprintf("tensor: AvgPool2DBackwardInto dst %v for grad %v", out.Shape, grad.Shape)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	h, w := out.Shape[1], out.Shape[2]
	if k == 2 && h == 2*oh && w == 2*ow {
		// The common 2×2 window on even planes: every window is whole and
		// disjoint, so each cell is written once as 0 + g/4, the value
		// zeroing then adding leaves (the 0 + turns a −0 into +0).
		for ci := 0; ci < c; ci++ {
			src := grad.Data[ci*oh*ow : (ci+1)*oh*ow]
			plane := out.Data[ci*h*w : (ci+1)*h*w]
			for oi := 0; oi < oh; oi++ {
				top := plane[2*oi*w : (2*oi+1)*w]
				bot := plane[(2*oi+1)*w : (2*oi+2)*w]
				for oj, gv := range src[oi*ow : (oi+1)*ow] {
					g := 0 + float32(gv/4)
					top[2*oj], top[2*oj+1], bot[2*oj], bot[2*oj+1] = g, g, g, g
				}
			}
		}
		return
	}
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
						i, j := oi*k+di, oj*k+dj
						if i < h && j < w {
							out.Data[(ci*h+i)*w+j] += g
						}
					}
				}
			}
		}
	}
}
