// Int8 kernels: the quantized inference path. Weights arrive as
// pre-built per-channel int8 panels (codes + one step per output row,
// see quant.Int8Panel). Activations are quantized on the fly with a
// symmetric step derived from one receptive field alone: a Dense input
// row, or a conv output position's im2row row. Accumulation is exact
// int32, the epilogue is one float32 multiply per element.
//
// Determinism: every output element is one int32 sum of code products
// plus that single-rounding epilogue. Integer addition does not depend
// on order, and each row's activation step depends only on that row's
// data, so the result is bit-identical at any worker count, any batch
// composition and any visiting order: MatMulInt8Into's row-wise dot
// products and ConvScatterInt8Into's event-driven scatter agree bit
// for bit on the same rows. (Contrast float32 GEMM, which is bit-stable
// only because the kernels pin accumulation order.)
//
// Accuracy: the step is max|row|/127, so only values that are integer
// multiples of it quantize exactly. A 0/1 spike row does (codes 0 and
// 127), but the AvgPool levels {0, ¼, ½, ¾, 1} that conv2 and fc1 of
// DVSNet see do not in general: 0.25 in a row whose max is 0.75 becomes
// code 42, which is about 0.248.
package tensor

import "fmt"

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
			qrow[p] = quantizeInt8(v, aStep)
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

// quantizeInt8 is the symmetric activation code of v at step aStep:
// v/aStep rounded half away from zero, clamped to ±127. r is a float32
// quotient widened to float64, so it has at most 24 significant bits:
// |r|+0.5 is exact whenever |r| ≥ 2⁻²⁹, and below that it stays under
// 1. Truncating |r|+0.5 therefore rounds exactly as math.Round does,
// and keeps this function small enough to inline into the kernels.
func quantizeInt8(v, aStep float32) int8 {
	r := float64(v / aStep)
	switch {
	case r >= 127:
		return 127
	case r <= -127:
		return -127
	case r < 0:
		return -int8(-r + 0.5)
	}
	return int8(r + 0.5)
}

// ConvScatterInt8Into is the event-driven int8 convolution of one
// (C,H,W) sample: ConvScatterInto's tap walk over the nonzero inputs,
// with int8 weight columns and int32 accumulators. codesT is the
// (C·KH·KW, outC) transposed code panel and steps[oc] the step of
// output channel oc. dst receives the channel-last (OutH·OutW, outC)
// result, equal bit for bit to Im2RowInto followed by MatMulInt8Into
// over the untransposed codes.
//
// The first walk leaves each output position's receptive-field max |v|
// in fieldStep and then replaces it by the step max/127, exactly as
// MatMulInt8Into derives it from that position's im2row row. The second
// quantizes each input against the step of every output it reaches and
// adds q·codesT[p,:] into that output's accumulator row of acc. The
// epilogue is float32(acc)·(step·steps[oc]); an empty field has step 0
// and an all-zero row, so it yields +0 as MatMulInt8Into's zero row
// does. fieldStep (OutH·OutW) and acc (OutH·OutW·outC) are caller
// scratch and are overwritten.
func ConvScatterInt8Into(dst []float32, x *Tensor, codesT []int8, steps []float32, outC int, g Conv2DGeom, fieldStep []float32, acc []int32) {
	if x.Rank() != 3 || x.Shape[0] != g.InC || x.Shape[1] != g.InH || x.Shape[2] != g.InW {
		panic(fmt.Sprintf("tensor: ConvScatterInt8 input %v does not match geom %+v", x.Shape, g)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	oh, ow := g.OutH(), g.OutW()
	n := oh * ow
	ckk := g.InC * g.KH * g.KW
	if len(dst) != n*outC || len(codesT) != ckk*outC || len(steps) != outC || len(fieldStep) != n || len(acc) != n*outC {
		panic(fmt.Sprintf("tensor: ConvScatterInt8 dst %d, codesT %d, steps %d, fieldStep %d, acc %d for %d outputs × %d channels, %d taps", //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
			len(dst), len(codesT), len(steps), len(fieldStep), len(acc), n, outC, ckk))
	}
	clear(fieldStep)
	clear(acc)
	st := g.Stride
	for pass := 0; pass < 2; pass++ {
		idx := 0
		for c := 0; c < g.InC; c++ {
			base := c * g.KH * g.KW
			// The division-free tap walk of ConvScatterInto.
			qi, ri := g.Pad/st, g.Pad%st
			for si := 0; si < g.InH; si++ {
				mi := max(0, qi-oh+1)
				ki0, oi0 := ri+mi*st, qi-mi
				qj, rj := g.Pad/st, g.Pad%st
				for sj := 0; sj < g.InW; sj++ {
					if v := x.Data[idx]; v != 0 {
						mj := max(0, qj-ow+1)
						kj0, oj0 := rj+mj*st, qj-mj
						if pass == 0 {
							a := v
							if a < 0 {
								a = -a
							}
							for ki, oi := ki0, oi0; ki < g.KH && oi >= 0; ki, oi = ki+st, oi-1 {
								o := oi*ow + oj0
								for kj, oj := kj0, oj0; kj < g.KW && oj >= 0; kj, oj = kj+st, oj-1 {
									if a > fieldStep[o] {
										fieldStep[o] = a
									}
									o--
								}
							}
						} else {
							// The outputs one input reaches share few steps
							// (spike maps mostly one), so the last (step,
							// code) pair is reused.
							lastStep, q := float32(-1), int32(0)
							for ki, oi := ki0, oi0; ki < g.KH && oi >= 0; ki, oi = ki+st, oi-1 {
								wOff := (base + ki*g.KW + kj0) * outC
								o := oi*ow + oj0
								for kj, oj := kj0, oj0; kj < g.KW && oj >= 0; kj, oj = kj+st, oj-1 {
									if s := fieldStep[o]; s != lastStep {
										lastStep, q = s, int32(quantizeInt8(v, s))
									}
									if q != 0 {
										w := codesT[wOff : wOff+outC]
										a := acc[o*outC : (o+1)*outC]
										a = a[:len(w)]
										for m, cv := range w {
											a[m] += q * int32(cv)
										}
									}
									wOff += st * outC
									o--
								}
							}
						}
					}
					idx++
					if rj++; rj == st {
						rj, qj = 0, qj+1
					}
				}
				if ri++; ri == st {
					ri, qi = 0, qi+1
				}
			}
		}
		if pass == 0 {
			for o, m := range fieldStep {
				fieldStep[o] = m / 127
			}
		}
	}
	steps = steps[:outC]
	for o, s := range fieldStep {
		d := dst[o*outC : (o+1)*outC]
		a := acc[o*outC : (o+1)*outC]
		d, a = d[:len(steps)], a[:len(steps)]
		for oc, w := range steps {
			d[oc] = float32(a[oc]) * (s * w)
		}
	}
}
