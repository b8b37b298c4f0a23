package tensor

// axpy computes y[i] += a·x[i] for every i < len(x). It is the one
// float32 multiply-add loop under the GEMMs, the conv scatter and the
// stride-1 col2im. On amd64 it runs axpySSE, which multiplies and adds
// four lanes at a time. SSE's MULPS and ADDPS round each lane exactly
// as the scalar MULSS and ADDSS that Go compiles y[i] += a*x[i] to, in
// the same operand order, so routing a loop through it changes no bit.
// Reslicing y to len(x) within len(y) makes a y shorter than x panic
// in Go instead of being overrun in assembly.
func axpy(a float32, x, y []float32) {
	axpySSE(a, x, y[:len(x):len(y)]) //axsnn:allow-alloc assembly leaf: SSE loads, multiply-adds and stores into y, no call and no allocation
}

// axpySSE is axpy's kernel (axpy_amd64.s); len(y) must be len(x).
//
//go:noescape
func axpySSE(a float32, x, y []float32)
