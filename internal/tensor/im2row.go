// Convolution lowerings and their transposes (im2row, im2col, col2im)
// and the event-driven scatter convolution with its input-driven weight
// gradient. The scatters' and the stride-1 col2im's inner loops are
// axpy runs (see axpy_amd64.go); the lowerings only move values. Each
// keeps its per-element order of adds, so it agrees bit for bit with
// the GEMM or per-element loop it replaced.
package tensor

import "fmt"

// Im2Row lowers a (C,H,W) input to an (OutH*OutW, C*KH*KW) matrix — the
// transpose of Im2Col. Each row is one output position's receptive
// field, so a convolution becomes rows·Wᵀ with the weight matrix
// (OutC, C*KH*KW), and spike-sparse inputs give sparse *rows* that the
// MatMul skip-zero fast path elides wholesale. Batched convolution
// stacks the per-sample row blocks contiguously, which is why this
// layout (and not im2col) is the batched path's native one.
func Im2Row(x *Tensor, g Conv2DGeom) *Tensor {
	out := New(g.OutH()*g.OutW(), g.InC*g.KH*g.KW)
	Im2RowInto(out.Data, x, g)
	return out
}

// Im2RowInto writes Im2Row(x, g) into dst, which must have exactly
// OutH*OutW·C*KH*KW elements. When the input is mostly zeros (spike
// frames), it clears dst and scatters only the nonzero pixels —
// O(nnz·KH·KW) instead of O(C·KH·KW·OutH·OutW).
func Im2RowInto(dst []float32, x *Tensor, g Conv2DGeom) {
	if x.Rank() != 3 || x.Shape[0] != g.InC || x.Shape[1] != g.InH || x.Shape[2] != g.InW {
		panic(fmt.Sprintf("tensor: Im2Row input %v does not match geom %+v", x.Shape, g)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	oh, ow := g.OutH(), g.OutW()
	ckk := g.InC * g.KH * g.KW
	if len(dst) != oh*ow*ckk {
		panic(fmt.Sprintf("tensor: Im2Row dst %d, want %d", len(dst), oh*ow*ckk)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	nnz := 0
	for _, v := range x.Data {
		if v != 0 {
			nnz++
		}
	}
	// The dense path writes every dst element; the scatter path clears
	// dst (cheap) then touches nnz·KH·KW cells at roughly twice the
	// per-cell cost. Crossover sits near 40% density.
	if nnz*5 < 2*len(x.Data) {
		clear(dst)
		im2RowScatter(dst, x, g, ckk)
		return
	}
	im2RowDense(dst, x, g, oh, ow, ckk)
}

// im2RowScatter writes each nonzero input pixel into the receptive-field
// rows it participates in.
func im2RowScatter(dst []float32, x *Tensor, g Conv2DGeom, ckk int) {
	oh, ow := g.OutH(), g.OutW()
	idx := 0
	for c := 0; c < g.InC; c++ {
		base := c * g.KH * g.KW
		for si := 0; si < g.InH; si++ {
			for sj := 0; sj < g.InW; sj++ {
				v := x.Data[idx]
				idx++
				if v == 0 {
					continue
				}
				for ki := 0; ki < g.KH; ki++ {
					ti := si + g.Pad - ki
					if ti < 0 || ti%g.Stride != 0 {
						continue
					}
					oi := ti / g.Stride
					if oi >= oh {
						continue
					}
					for kj := 0; kj < g.KW; kj++ {
						tj := sj + g.Pad - kj
						if tj < 0 || tj%g.Stride != 0 {
							continue
						}
						oj := tj / g.Stride
						if oj >= ow {
							continue
						}
						dst[(oi*ow+oj)*ckk+base+ki*g.KW+kj] = v
					}
				}
			}
		}
	}
}

// ConvScatterInto is the event-driven convolution of one (C,H,W)
// sample: it clears the channel-last (OutH*OutW, outC) accumulator dst
// and visits each nonzero input (c, y, x) in raster order, adding
// v·W[:,p] into the row of every output position that kernel tap
// p = (c, ky, kx) reaches. The work is at most nnz·KH·KW·outC
// multiply-adds: one per input spike per synapse, the SOP count the
// energy model prices.
//
// wR is the (C*KH*KW, outC) weight panel ConvScatterWeightsInto builds:
// Wᵀ with each kernel row's taps reversed, so row (c, ky, KW−1−kx)
// holds tap (c, ky, kx). At stride 1 the taps one input reaches in a
// kernel row land on consecutive output columns, in the order opposite
// to kx. Reversed, their weights form one contiguous run that lines up
// with those outputs' accumulator rows, so each (input, kernel row) is
// a single axpy. At larger strides each tap is one outC-long axpy.
//
// dst equals Im2Row(x)·Wᵀ bit for bit. Raster order hands each output
// its terms in ascending p, which is the order the GEMM's k loop adds
// them in, and both skip exactly the zero inputs. An input reaches an
// output through at most one tap, so batching its taps into one run
// reorders no output's terms. The im2col form W·Im2Col(x) skips zero
// weights instead of zero inputs; the terms the two differ by are ±0
// products, so it agrees under ==.
func ConvScatterInto(dst []float32, x *Tensor, wR []float32, outC int, g Conv2DGeom) {
	if x.Rank() != 3 || x.Shape[0] != g.InC || x.Shape[1] != g.InH || x.Shape[2] != g.InW {
		panic(fmt.Sprintf("tensor: ConvScatter input %v does not match geom %+v", x.Shape, g)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	oh, ow := g.OutH(), g.OutW()
	ckk := g.InC * g.KH * g.KW
	if len(dst) != oh*ow*outC || len(wR) != ckk*outC {
		panic(fmt.Sprintf("tensor: ConvScatter dst %d, wR %d, want %d, %d", len(dst), len(wR), oh*ow*outC, ckk*outC)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	clear(dst)
	st := g.Stride
	idx := 0
	for c := 0; c < g.InC; c++ {
		base := c * g.KH * g.KW
		// Tap ki of input row si reaches output row oi when
		// si+Pad = oi·Stride + ki. With si+Pad = qi·Stride + ri, those
		// taps are ki = ri + m·Stride, oi = qi - m for m >= 0, and
		// likewise for columns. q and r advance with the loops, so the
		// tap walk needs no division.
		qi, ri := g.Pad/st, g.Pad%st
		for si := 0; si < g.InH; si++ {
			mi := max(0, qi-oh+1)
			ki0, oi0 := ri+mi*st, qi-mi
			qj, rj := g.Pad/st, g.Pad%st
			for sj := 0; sj < g.InW; sj++ {
				if v := x.Data[idx]; v != 0 {
					mj := max(0, qj-ow+1)
					kj0, oj0 := rj+mj*st, qj-mj
					// At stride 1, the taps kj0..kj0+nj-1 of a kernel
					// row reach the output columns oj0..oj0-nj+1.
					nj := min(g.KW-kj0, oj0+1)
					for ki, oi := ki0, oi0; ki < g.KH && oi >= 0; ki, oi = ki+st, oi-1 {
						// wRow holds tap kj0, which reaches output o.
						wRow := base + ki*g.KW + g.KW - 1 - kj0
						o := oi*ow + oj0
						if st == 1 {
							// Rows wRow-nj+1..wRow meet outputs o-nj+1..o.
							axpy(v, wR[(wRow-nj+1)*outC:(wRow+1)*outC], dst[(o-nj+1)*outC:(o+1)*outC])
							continue
						}
						for kj, oj := kj0, oj0; kj < g.KW && oj >= 0; kj, oj = kj+st, oj-1 {
							axpy(v, wR[wRow*outC:(wRow+1)*outC], dst[o*outC:(o+1)*outC])
							wRow, o = wRow-st, o-1
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
}

// ConvWeightGradScatterAcc is the weight gradient of ConvScatterInto,
// driven by the same input events: for one (C,H,W) sample x and its
// channel-last (OutH*OutW, outC) output gradient gT, it adds v·gT[j,:]
// into row p of the (C*KH*KW, outC) panel dR for every nonzero input v
// and every output j that v reaches through tap p. dR has
// ConvScatterWeightsInto's tap-reversed layout, so ConvScatterInto's
// tap walk applies unchanged: at stride 1 each (input, kernel row) is
// one axpy of a run of gT rows into a run of dR rows.
// AddConvScatterWeights folds the panel into an (outC, C*KH*KW) weight
// gradient.
//
// Run over a batch's samples in order into a panel zeroed once, then
// folded, it adds the same dW as MatMulTAcc(dW, g2B, cols), with cols
// the batch's Im2ColStripeInto panel and g2B the (outC, B·OutH*OutW)
// gradient, bit for bit on finite values. For a fixed tap p, raster
// order reaches the outputs j in ascending (b, j), the order of the dot
// product's k loop, and each panel cell starts at +0 as its sum does.
// The terms the kernel skips are the products of a zero input, which
// are ±0 and change no sum that starts at +0.
func ConvWeightGradScatterAcc(dR []float32, x *Tensor, gT []float32, outC int, g Conv2DGeom) {
	if x.Rank() != 3 || x.Shape[0] != g.InC || x.Shape[1] != g.InH || x.Shape[2] != g.InW {
		panic(fmt.Sprintf("tensor: ConvWeightGradScatter input %v does not match geom %+v", x.Shape, g)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	oh, ow := g.OutH(), g.OutW()
	ckk := g.InC * g.KH * g.KW
	if len(gT) != oh*ow*outC || len(dR) != ckk*outC {
		panic(fmt.Sprintf("tensor: ConvWeightGradScatter gT %d, dR %d, want %d, %d", len(gT), len(dR), oh*ow*outC, ckk*outC)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	// ConvScatterInto's tap walk, kept as a copy: one walker shared by
	// both directions made the forward slower on the served shapes.
	st := g.Stride
	idx := 0
	for c := 0; c < g.InC; c++ {
		base := c * g.KH * g.KW
		qi, ri := g.Pad/st, g.Pad%st
		for si := 0; si < g.InH; si++ {
			mi := max(0, qi-oh+1)
			ki0, oi0 := ri+mi*st, qi-mi
			qj, rj := g.Pad/st, g.Pad%st
			for sj := 0; sj < g.InW; sj++ {
				if v := x.Data[idx]; v != 0 {
					mj := max(0, qj-ow+1)
					kj0, oj0 := rj+mj*st, qj-mj
					nj := min(g.KW-kj0, oj0+1)
					for ki, oi := ki0, oi0; ki < g.KH && oi >= 0; ki, oi = ki+st, oi-1 {
						wRow := base + ki*g.KW + g.KW - 1 - kj0
						o := oi*ow + oj0
						if st == 1 {
							// Outputs o-nj+1..o meet rows wRow-nj+1..wRow.
							axpy(v, gT[(o-nj+1)*outC:(o+1)*outC], dR[(wRow-nj+1)*outC:(wRow+1)*outC])
							continue
						}
						for kj, oj := kj0, oj0; kj < g.KW && oj >= 0; kj, oj = kj+st, oj-1 {
							axpy(v, gT[o*outC:(o+1)*outC], dR[wRow*outC:(wRow+1)*outC])
							wRow, o = wRow-st, o-1
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
}

// ConvScatterWeightsInto writes ConvScatterInto's weight panel for the
// (outC, C*KH*KW) weight matrix w into the (C*KH*KW, outC) tensor dst:
// row (c, ky, KW−1−kx) of dst holds the outC weights of tap (c, ky, kx).
// A layer builds it once per pass, where it would otherwise transpose.
func ConvScatterWeightsInto(dst, w *Tensor, g Conv2DGeom) {
	outC := checkConvScatterWeights("ConvScatterWeightsInto", dst, w, g)
	ckk := g.InC * g.KH * g.KW
	for oc := 0; oc < outC; oc++ {
		for p, v := range w.Data[oc*ckk : (oc+1)*ckk] {
			kj := p % g.KW
			dst.Data[(p+g.KW-1-2*kj)*outC+oc] = v
		}
	}
}

// AddConvScatterWeights folds a panel in ConvScatterWeightsInto's
// layout back into weight layout, accumulating: w[oc, p] += r[p', oc],
// where row p' of r holds tap p. It adds ConvWeightGradScatterAcc's
// panel into a weight gradient.
func AddConvScatterWeights(w, r *Tensor, g Conv2DGeom) {
	outC := checkConvScatterWeights("AddConvScatterWeights", r, w, g)
	ckk := g.InC * g.KH * g.KW
	for oc := 0; oc < outC; oc++ {
		row := w.Data[oc*ckk : (oc+1)*ckk]
		for p := range row {
			kj := p % g.KW
			row[p] += r.Data[(p+g.KW-1-2*kj)*outC+oc]
		}
	}
}

// checkConvScatterWeights checks a (C*KH*KW, outC) panel against an
// (outC, C*KH*KW) weight matrix and returns outC.
func checkConvScatterWeights(op string, panel, w *Tensor, g Conv2DGeom) int {
	ckk := g.InC * g.KH * g.KW
	if w.Rank() != 2 || w.Shape[1] != ckk || panel.Rank() != 2 || panel.Shape[0] != ckk || panel.Shape[1] != w.Shape[0] {
		panic(fmt.Sprintf("tensor: %s panel %v, weights %v for geom %+v", op, panel.Shape, w.Shape, g)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	return w.Shape[0]
}

// im2RowDense is the gather form: every output row is filled from its
// receptive field, zero-padding out-of-range taps.
func im2RowDense(dst []float32, x *Tensor, g Conv2DGeom, oh, ow, ckk int) {
	for oi := 0; oi < oh; oi++ {
		for oj := 0; oj < ow; oj++ {
			row := dst[(oi*ow+oj)*ckk : (oi*ow+oj+1)*ckk]
			r := 0
			for c := 0; c < g.InC; c++ {
				plane := x.Data[c*g.InH*g.InW:]
				for ki := 0; ki < g.KH; ki++ {
					si := oi*g.Stride + ki - g.Pad
					for kj := 0; kj < g.KW; kj++ {
						sj := oj*g.Stride + kj - g.Pad
						if si >= 0 && si < g.InH && sj >= 0 && sj < g.InW {
							row[r] = plane[si*g.InW+sj]
						} else {
							row[r] = 0
						}
						r++
					}
				}
			}
		}
	}
}

// Im2ColStripeInto lowers x into one sample's column stripe of a
// batched im2col matrix: element (r, j) of the sample's (C*KH*KW,
// OutH*OutW) lowering lands at dst[r*rowStride + colOff + j]. With
// rowStride = OutH*OutW and colOff = 0 this is exactly Im2Col; batched
// convolution uses rowStride = B·OutH*OutW and colOff = b·OutH*OutW so
// one GEMM covers the whole batch, as the allocating Conv2D oracle
// does. When the input is mostly zeros (spike frames), the stripe is
// cleared and only the nonzero pixels scatter, O(nnz·KH·KW) instead of
// O(C·KH·KW·OutH·OutW); the panel contents are identical either way.
func Im2ColStripeInto(dst []float32, rowStride, colOff int, x *Tensor, g Conv2DGeom) {
	if x.Rank() != 3 || x.Shape[0] != g.InC || x.Shape[1] != g.InH || x.Shape[2] != g.InW {
		panic(fmt.Sprintf("tensor: Im2ColStripe input %v does not match geom %+v", x.Shape, g)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	oh, ow := g.OutH(), g.OutW()
	nnz := 0
	for _, v := range x.Data {
		if v != 0 {
			nnz++
		}
	}
	// Same ~40% density crossover as Im2RowInto: below it, clearing the
	// stripe and scattering the live pixels beats the dense gather.
	if nnz*5 < 2*len(x.Data) {
		ckk := g.InC * g.KH * g.KW
		for r := 0; r < ckk; r++ {
			clear(dst[r*rowStride+colOff : r*rowStride+colOff+oh*ow])
		}
		im2ColStripeScatter(dst, rowStride, colOff, x, g, oh, ow)
		return
	}
	row := 0
	for c := 0; c < g.InC; c++ {
		plane := x.Data[c*g.InH*g.InW:]
		for ki := 0; ki < g.KH; ki++ {
			for kj := 0; kj < g.KW; kj++ {
				out := dst[row*rowStride+colOff : row*rowStride+colOff+oh*ow]
				idx := 0
				for oi := 0; oi < oh; oi++ {
					si := oi*g.Stride + ki - g.Pad
					for oj := 0; oj < ow; oj++ {
						sj := oj*g.Stride + kj - g.Pad
						if si >= 0 && si < g.InH && sj >= 0 && sj < g.InW {
							out[idx] = plane[si*g.InW+sj]
						} else {
							out[idx] = 0
						}
						idx++
					}
				}
				row++
			}
		}
	}
}

// im2ColStripeScatter writes each nonzero input pixel into every
// (kernel-tap row, output position) cell of the cleared stripe it
// participates in — the im2col transpose of im2RowScatter.
func im2ColStripeScatter(dst []float32, rowStride, colOff int, x *Tensor, g Conv2DGeom, oh, ow int) {
	idx := 0
	for c := 0; c < g.InC; c++ {
		base := c * g.KH * g.KW
		for si := 0; si < g.InH; si++ {
			for sj := 0; sj < g.InW; sj++ {
				v := x.Data[idx]
				idx++
				if v == 0 {
					continue
				}
				for ki := 0; ki < g.KH; ki++ {
					ti := si + g.Pad - ki
					if ti < 0 || ti%g.Stride != 0 {
						continue
					}
					oi := ti / g.Stride
					if oi >= oh {
						continue
					}
					for kj := 0; kj < g.KW; kj++ {
						tj := sj + g.Pad - kj
						if tj < 0 || tj%g.Stride != 0 {
							continue
						}
						oj := tj / g.Stride
						if oj >= ow {
							continue
						}
						dst[(base+ki*g.KW+kj)*rowStride+colOff+oi*ow+oj] = v
					}
				}
			}
		}
	}
}

// Col2ImStripeInto is the transpose of Im2ColStripeInto: it
// scatter-adds one sample's column stripe of a batched column-gradient
// matrix into the (C,H,W) input-gradient tensor x. At stride 1 each
// output row's in-bounds columns add as one axpy run.
func Col2ImStripeInto(x *Tensor, src []float32, rowStride, colOff int, g Conv2DGeom) {
	if x.Rank() != 3 || x.Shape[0] != g.InC || x.Shape[1] != g.InH || x.Shape[2] != g.InW {
		panic(fmt.Sprintf("tensor: Col2ImStripe output %v does not match geom %+v", x.Shape, g)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	oh, ow := g.OutH(), g.OutW()
	row := 0
	for c := 0; c < g.InC; c++ {
		plane := x.Data[c*g.InH*g.InW:]
		for ki := 0; ki < g.KH; ki++ {
			for kj := 0; kj < g.KW; kj++ {
				in := src[row*rowStride+colOff : row*rowStride+colOff+oh*ow]
				row++
				if g.Stride == 1 {
					// Output column oj reads input column oj+kj-Pad, so
					// the columns lo..hi-1 that land inside the input are
					// one run per output row. Each input element takes
					// at most one term per tap, so the runs add every
					// element's terms in the per-element loop's order.
					lo, hi := max(0, g.Pad-kj), min(ow, g.InW+g.Pad-kj)
					for oi := 0; oi < oh && lo < hi; oi++ {
						if si := oi + ki - g.Pad; si >= 0 && si < g.InH {
							dOff := si*g.InW + lo + kj - g.Pad
							axpy(1, in[oi*ow+lo:oi*ow+hi], plane[dOff:dOff+hi-lo])
						}
					}
					continue
				}
				idx := 0
				for oi := 0; oi < oh; oi++ {
					si := oi*g.Stride + ki - g.Pad
					for oj := 0; oj < ow; oj++ {
						sj := oj*g.Stride + kj - g.Pad
						if si >= 0 && si < g.InH && sj >= 0 && sj < g.InW {
							plane[si*g.InW+sj] += in[idx]
						}
						idx++
					}
				}
			}
		}
	}
}
