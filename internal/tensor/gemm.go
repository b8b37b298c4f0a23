// Blocked GEMM kernels, in the two layouts the SNN layers run:
//
//	MatMulInto  C = A·B     (m×k)·(k×n)  dense forward and input gradient
//	TMatMulAcc  C += Aᵀ·B   (k×m)·(k×n)  dense weight gradient, conv column gradient
//
// Both skip the zero elements of A (spike activity is mostly zeros, so
// entire inner loops vanish), and MatMulInto blocks its loops for cache
// locality. Every kernel is serial and pins its per-element
// accumulation order, so results are bit-identical at any worker count.
// Parallelism lives one grain up: callers fan samples, sessions and
// window batches out over ParallelFor, each block running these kernels
// on its own data.
//
// The unit-stride inner loops are axpy calls (y += a·x): SSE assembly
// on amd64, a Go loop elsewhere, rounding each element exactly as the
// scalar loop y[j] += a*x[j] does on amd64 (see axpy_amd64.go).
package tensor

import "fmt"

// gemmKC / gemmNC block the k and n loops so a (gemmKC × gemmNC)
// panel of B stays cache-resident while a row block of C streams.
const (
	gemmKC = 240
	gemmNC = 1024
)

func checkGEMM(op string, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: %s wants rank-2, got %v × %v", op, a.Shape, b.Shape)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
}

// MatMulInto computes dst = A·B for A (m×k) and B (k×n) into a
// caller-owned m×n tensor, overwriting its contents. Zero elements of A
// skip their whole inner loop, which makes spike-matrix products cost
// O(nnz·n) instead of O(m·k·n).
func MatMulInto(dst, a, b *Tensor) {
	checkGEMM("MatMulInto", a, b)
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulInto inner dims %d vs %d", k, k2)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	if dst.Rank() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto dst %v, want [%d %d]", dst.Shape, m, n)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	clear(dst.Data)
	matMulRows(dst.Data, a.Data, b.Data, m, k, n)
}

// matMulRows computes C = A·B (m rows) with k/n blocking. For every
// output element the k terms accumulate in ascending order, so the
// result is bit-identical to the naive ikj kernel regardless of
// blocking. Matrices that fit a single cache block take the tight
// unblocked loop: the blocked form's sub-slice arithmetic costs ~1.5×
// on small shapes.
func matMulRows(cd, ad, bd []float32, m, k, n int) {
	if k <= gemmKC && n <= gemmNC {
		for i := 0; i < m; i++ {
			arow := ad[i*k : (i+1)*k]
			crow := cd[i*n : (i+1)*n]
			for p, av := range arow {
				if av != 0 {
					axpy(av, bd[p*n:(p+1)*n], crow)
				}
			}
		}
		return
	}
	for kb := 0; kb < k; kb += gemmKC {
		kEnd := kb + gemmKC
		if kEnd > k {
			kEnd = k
		}
		for jb := 0; jb < n; jb += gemmNC {
			jEnd := jb + gemmNC
			if jEnd > n {
				jEnd = n
			}
			for i := 0; i < m; i++ {
				arow := ad[i*k+kb : i*k+kEnd]
				crow := cd[i*n+jb : i*n+jEnd]
				for pp, av := range arow {
					if av != 0 {
						axpy(av, bd[(kb+pp)*n+jb:(kb+pp)*n+jEnd], crow)
					}
				}
			}
		}
	}
}

// TMatMulInto computes dst = Aᵀ·B into a caller-owned m×n tensor,
// overwriting its contents: TMatMulAcc onto zeros.
func TMatMulInto(dst, a, b *Tensor) {
	clear(dst.Data)
	TMatMulAcc(dst, a, b)
}

// TMatMulAcc accumulates dst += Aᵀ·B for A (k×m) and B (k×n), the
// layout gradient kernels need (dst is a weight-gradient buffer
// accumulated across time steps). Zero elements of A skip their inner
// loop (the spike fast path), and every output element adds its k terms
// in ascending order.
func TMatMulAcc(dst, a, b *Tensor) {
	checkGEMM("TMatMulAcc", a, b)
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: TMatMulAcc inner dims %d vs %d", k, k2)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	if dst.Rank() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: TMatMulAcc dst %v, want [%d %d]", dst.Shape, m, n)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	// A rows stream contiguously in ascending k order, so the skip-zero
	// check touches each element of the (typically sparse) A once.
	cd, ad, bd := dst.Data, a.Data, b.Data
	for p := 0; p < k; p++ {
		arow := ad[p*m : (p+1)*m]
		brow := bd[p*n : (p+1)*n]
		for i, av := range arow {
			if av != 0 {
				axpy(av, brow, cd[i*n:(i+1)*n])
			}
		}
	}
}

// AddTransposed accumulates t += oᵀ for rank-2 tensors, the cheap final
// hop when a gradient was computed in transposed layout to exploit
// sparsity (e.g. dWᵀ = Xᵀ·G with spike-sparse X).
func (t *Tensor) AddTransposed(o *Tensor) *Tensor {
	if t.Rank() != 2 || o.Rank() != 2 || t.Shape[0] != o.Shape[1] || t.Shape[1] != o.Shape[0] {
		panic(fmt.Sprintf("tensor: AddTransposed %v += %vᵀ", t.Shape, o.Shape)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	m, n := t.Shape[0], t.Shape[1]
	for i := 0; i < m; i++ {
		row := t.Data[i*n : (i+1)*n]
		for j := range row {
			row[j] += o.Data[j*m+i]
		}
	}
	return t
}
