// Int8 GEMM kernels: the quantized inference path. Weights arrive as
// pre-built per-channel int8 panels (codes + one step per output row,
// see quant.Int8Panel); activations are quantized per row on the fly
// with a symmetric step derived from that row alone. Accumulation is
// exact int32, the epilogue is one float32 multiply per element.
//
// Determinism: every output element is one int32 dot product over the
// row's nonzero columns in ascending order — integer accumulation is
// associative, the per-row activation step depends only on that row's
// data, and the float32 epilogue is a single rounding. The result is
// therefore bit-identical at any worker count AND any batch
// composition: adding or removing other rows of A cannot change a
// row's quantization or its dot products. (Contrast float32 GEMM,
// which is bit-stable only because the kernels pin accumulation
// order.) Spike activations (0/1 rows) quantize exactly to ±127 codes,
// so downstream layers see only the weight-quantization error.
package tensor

import (
	"fmt"
	"math"
)

// Int8Scratch is caller-owned scratch for MatMulInt8Into: one k-wide
// quantized-activation row and the nonzero-column gather. Buffers grow
// capacity-based to the high-water mark once and are reused
// thereafter, preserving the zero-alloc hot-path contract.
type Int8Scratch struct {
	qrow []int8
	idx  []int
}

// grow ensures capacity for k-wide rows.
func (s *Int8Scratch) grow(k int) {
	if cap(s.qrow) < k {
		s.qrow = make([]int8, k) //axsnn:allow-alloc scratch grows to the high-water shape once, reused thereafter
	}
	s.qrow = s.qrow[:k]
	if cap(s.idx) < k {
		s.idx = make([]int, k) //axsnn:allow-alloc scratch grows to the high-water shape once, reused thereafter
	}
	s.idx = s.idx[:k]
}

// MatMulInt8Into computes dst = A·Codesᵀ for a float32 activation
// panel A (m×k) against an (n×k) per-channel int8 weight panel: row j
// of codes holds output channel j's quantized weights with step
// steps[j]. Each A row is quantized symmetrically on the fly (step =
// max|row|/127), the dot products accumulate in int32 over the row's
// nonzero columns only (the spike-sparse skip: spike panels are mostly
// zeros), and the epilogue scales by aStep·steps[j]. dst is
// overwritten. sc is caller-owned scratch; the steady state allocates
// nothing.
func MatMulInt8Into(dst, a []float32, m, k int, codes []int8, steps []float32, n int, sc *Int8Scratch) {
	if len(a) < m*k || len(dst) < m*n {
		panic(fmt.Sprintf("tensor: MatMulInt8Into a %d dst %d, want >= %d×%d and %d×%d", len(a), len(dst), m, k, m, n)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	if len(codes) < n*k || len(steps) < n {
		panic(fmt.Sprintf("tensor: MatMulInt8Into panel %d steps %d, want >= %d×%d and %d", len(codes), len(steps), n, k, n)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	sc.grow(k)
	qrow, idx := sc.qrow, sc.idx
	// Per row: quantize + gather into the scratch, then n int32 dot
	// products over the gathered nonzero columns.
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		// Symmetric per-row step from this row alone, so the
		// quantization is independent of the batch it rides in.
		maxAbs := float32(0)
		for _, v := range arow {
			if v < 0 {
				v = -v
			}
			if v > maxAbs {
				maxAbs = v
			}
		}
		drow := dst[i*n : (i+1)*n]
		if maxAbs == 0 {
			for j := range drow[:n] {
				drow[j] = 0
			}
			continue
		}
		aStep := maxAbs / 127
		nz := 0
		for p, v := range arow {
			if v == 0 {
				continue
			}
			q := math.Round(float64(v / aStep))
			if q > 127 {
				q = 127
			} else if q < -127 {
				q = -127
			}
			qrow[p] = int8(q)
			idx[nz] = p
			nz++
		}
		gather := idx[:nz]
		for j := 0; j < n; j++ {
			crow := codes[j*k : (j+1)*k]
			var acc int32
			for _, p := range gather {
				acc += int32(qrow[p]) * int32(crow[p])
			}
			drow[j] = float32(acc) * (aStep * steps[j])
		}
	}
}

// ConvInt8Into is the im2row-lowered int8 convolution's lowering hop:
// it lowers the (C,H,W) sample x into the caller's rows panel
// (OutH·OutW × C·KH·KW, at rowOff rows in) exactly like the float32
// rows-orient conv path, and the caller then runs MatMulInt8Into over
// the full batched panel. Splitting lowering from the GEMM keeps the
// batch shape identical to the FP32 path, so the two tiers share the
// scatter/bias epilogues.
func ConvInt8Into(rows []float32, rowOff int, x *Tensor, g Conv2DGeom) {
	ckk := g.InC * g.KH * g.KW
	n := g.OutH() * g.OutW()
	Im2RowInto(rows[rowOff*ckk:(rowOff+n)*ckk], x, g)
}
