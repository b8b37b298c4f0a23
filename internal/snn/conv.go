package snn

import (
	"fmt"

	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over (C,H,W) inputs. Weights are stored
// as (OutC, InC·KH·KW) plus a per-output-channel bias.
//
// The layer's arena pair is event-driven in every pass: each nonzero
// input scatters through its kernel taps, so the cost follows the
// layer's synaptic operations. The FP32 forward reads a weight panel
// built once per pass, Wᵀ with each kernel row's taps reversed, so one
// input's taps along a kernel row are one contiguous multiply-add run
// (tensor.ConvScatterWeightsInto). At the INT8 tier inference scatters
// too, through int8 weight columns into int32 accumulators. A training
// step caches its input rather than an im2col panel, and the weight
// gradient scatters the output gradient from that input's nonzeros into
// a panel of the same tap-reversed layout
// (tensor.ConvWeightGradScatterAcc). The input gradient stays a GEMM
// plus col2im.
type Conv2D struct {
	Geom tensor.Conv2DGeom
	OutC int

	W *tensor.Tensor // (OutC, InC*KH*KW)
	B *tensor.Tensor // (OutC)

	// Mask, when non-nil, zeroes pruned connections after every weight
	// read; the approx package installs it (same shape as W).
	Mask *tensor.Tensor

	dW *tensor.Tensor
	dB *tensor.Tensor

	adapter // ForwardBatch's arena

	// Int8 tier state (tier.go): the per-channel panel and its codes
	// transposed to (InC·KH·KW, OutC) for the scatter, both built cold
	// by Network.BuildInt8Panels and shared read-only between clones,
	// and the latch SetTier flips.
	panel   *quant.Int8Panel
	codesT  []int8
	useInt8 bool
}

// NewConv2D creates a convolution with Kaiming-uniform-ish Gaussian init.
func NewConv2D(inC, outC, k, stride, pad, inH, inW int, r *rng.RNG) *Conv2D {
	g := tensor.Conv2DGeom{InC: inC, InH: inH, InW: inW, KH: k, KW: k, Stride: stride, Pad: pad}
	c := &Conv2D{Geom: g, OutC: outC}
	fanIn := inC * k * k
	c.W = tensor.New(outC, fanIn)
	sd := sqrt32(2 / float32(fanIn))
	for i := range c.W.Data {
		c.W.Data[i] = r.NormFloat32() * sd
	}
	c.B = tensor.New(outC)
	c.dW = tensor.New(outC, fanIn)
	c.dB = tensor.New(outC)
	return c
}

func sqrt32(x float32) float32 {
	if x <= 0 {
		return 0
	}
	// Newton iterations on float64 then narrow; precision is irrelevant
	// for initialization.
	z := float64(x)
	y := z
	for i := 0; i < 20; i++ {
		y = 0.5 * (y + z/y)
	}
	return float32(y)
}

// Name implements Layer.
func (c *Conv2D) Name() string { return "conv2d" }

// ForwardBatch implements Layer (see adapter).
func (c *Conv2D) ForwardBatch(x *tensor.Tensor, train bool) *tensor.Tensor {
	return c.forward(c, x, train)
}

// scatterRowsBias de-interleaves a channel-last result (B·N, OutC), as
// the arena's scatters leave it, into (B, OutC, N) output layout,
// adding the channel bias.
func (c *Conv2D) scatterRowsBias(out, outT *tensor.Tensor, batch, n int) {
	for b := 0; b < batch; b++ {
		for j := 0; j < n; j++ {
			src := outT.Data[(b*n+j)*c.OutC : (b*n+j+1)*c.OutC]
			for oc, v := range src {
				out.Data[(b*c.OutC+oc)*n+j] = v + c.B.Data[oc]
			}
		}
	}
}

// trainEffW returns the weight matrix with the prune mask applied from
// the arena's once-per-pass slot, or the raw weights when unmasked. The
// forward derives it; the backward calls of the same pass reuse it.
func (c *Conv2D) trainEffW(ts *TrainScratch, li int) *tensor.Tensor {
	if c.Mask == nil {
		return c.W
	}
	effW, fresh := ts.once2(li, slotEffW, c.OutC, c.Geom.InC*c.Geom.KH*c.Geom.KW)
	if fresh {
		copy(effW.Data, c.W.Data)
		effW.Mul(c.Mask)
	}
	return effW
}

// ForwardBatchInto implements Layer ((B,C,H,W) → (B,OutC,OutH,OutW)),
// the layer's one forward; output, accumulators and once-per-pass
// weight panels come from the arena. Every pass is event-driven.
// Inference at the INT8 tier runs tensor.ConvScatterInt8Into over the
// prebuilt transposed codes, which already carry the prune mask, with
// its field steps and int32 accumulators drawn from the arena. Every
// other pass runs tensor.ConvScatterInto over the tap-reversed panel:
// it does work in proportion to the nonzero inputs and adds each
// output's nonzero terms in ascending receptive-field position. A
// training pass also keeps the step's input in the arena's step ring,
// which the weight gradient scatters.
func (c *Conv2D) ForwardBatchInto(x *tensor.Tensor, ts *TrainScratch, li, t int) *tensor.Tensor {
	g := c.Geom
	chw := g.InC * g.InH * g.InW
	if x.Rank() != 4 || x.Len() != x.Shape[0]*chw {
		panic(fmt.Sprintf("snn: Conv2D batch input %s does not match geom %+v", shapeStr(x.Shape), g)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	batch := x.Shape[0]
	oh, ow := g.OutH(), g.OutW()
	n := oh * ow
	ckk := g.InC * g.KH * g.KW
	out := ts.buf4(li, slotOut, -1, batch, c.OutC, oh, ow)
	outT := ts.buf2(li, slotOutT, -1, batch*n, c.OutC)
	if ts.pass == passInfer && c.useInt8 {
		fieldStep := ts.buf2(li, slotActStep, -1, oh, ow)
		acc := ts.int32s(li, slotAcc, -1, n*c.OutC)
		for b := 0; b < batch; b++ {
			sample := ts.view3(li, slotInView, x.Data[b*chw:(b+1)*chw], g.InC, g.InH, g.InW)
			tensor.ConvScatterInt8Into(outT.Data[b*n*c.OutC:(b+1)*n*c.OutC], sample, c.codesT, c.panel.Steps, c.OutC, g, fieldStep.Data, acc)
		}
	} else {
		wR, fresh := ts.once2(li, slotWT, ckk, c.OutC)
		if fresh {
			tensor.ConvScatterWeightsInto(wR, c.trainEffW(ts, li), g)
		}
		for b := 0; b < batch; b++ {
			sample := ts.view3(li, slotInView, x.Data[b*chw:(b+1)*chw], g.InC, g.InH, g.InW)
			tensor.ConvScatterInto(outT.Data[b*n*c.OutC:(b+1)*n*c.OutC], sample, wR.Data, c.OutC, g)
		}
	}
	c.scatterRowsBias(out, outT, batch, n)
	if ts.pass == passTrain {
		xc := ts.buf2(li, slotXCache, t, batch, chw)
		copy(xc.Data, x.Data)
	}
	return out
}

// BackwardBatchInto implements Layer against the arena's cached input
// for this step. A training pass leaves the weight and bias gradients
// to the reduction (reduceStep): it lays the output gradient out
// channel-last, the rows the input-driven weight-gradient scatter
// reads, and records it with the step's cached input. An input-gradient
// pass skips both. With needDX false (no parameter layer below) the
// input-gradient GEMM and col2im scatter are skipped entirely.
func (c *Conv2D) BackwardBatchInto(grad *tensor.Tensor, ts *TrainScratch, li, t int, needDX bool) *tensor.Tensor {
	g := c.Geom
	batch := grad.Shape[0]
	oh, ow := g.OutH(), g.OutW()
	n := oh * ow
	ckk := g.InC * g.KH * g.KW
	chw := g.InC * g.InH * g.InW

	if ts.pass == passTrain {
		// gT[b·N+j, oc] = grad[b, oc, j], the channel-last rows the
		// reduction's bias sums and weight-gradient scatter read.
		gT := ts.buf2(li, slotGradOut, t&1, batch*n, c.OutC)
		for b := 0; b < batch; b++ {
			for oc := 0; oc < c.OutC; oc++ {
				for j, v := range grad.Data[(b*c.OutC+oc)*n : (b*c.OutC+oc+1)*n] {
					gT.Data[(b*n+j)*c.OutC+oc] = v
				}
			}
		}
		*ts.stepGrad(li, t) = stepGrad{x: ts.cachedInput(li, t), g: gT}
	}
	if !needDX {
		return nil
	}
	// g2B[oc, b·N+j] = grad[b, oc, j]; for a single sample the gradient
	// already is that matrix.
	var g2B *tensor.Tensor
	if batch == 1 {
		g2B = ts.view2(li, slotGradView, grad.Data, c.OutC, n)
	} else {
		g2B = ts.buf2(li, slotG2B, -1, c.OutC, batch*n)
		for b := 0; b < batch; b++ {
			for oc := 0; oc < c.OutC; oc++ {
				copy(g2B.Data[oc*batch*n+b*n:oc*batch*n+(b+1)*n],
					grad.Data[(b*c.OutC+oc)*n:(b*c.OutC+oc)*n+n])
			}
		}
	}
	// dX = col2im(Wᵀ·g2B) per sample.
	dcols := ts.buf2(li, slotDCols, -1, ckk, batch*n)
	tensor.TMatMulInto(dcols, c.trainEffW(ts, li), g2B)
	dx := ts.buf4(li, slotGrad, -1, batch, g.InC, g.InH, g.InW)
	dx.Zero()
	for b := 0; b < batch; b++ {
		sample := ts.view3(li, slotOutView, dx.Data[b*chw:(b+1)*chw], g.InC, g.InH, g.InW)
		tensor.Col2ImStripeInto(sample, dcols.Data, batch*n, b*n, g)
	}
	return dx
}

// Params implements ParamLayer.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.W, c.B} }

// Grads implements ParamLayer.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.dW, c.dB} }

// Dense is a fully connected layer y = Wx + b over (B,In) batches.
type Dense struct {
	In, Out int

	W *tensor.Tensor // (Out, In)
	B *tensor.Tensor // (Out)

	// Mask, when non-nil, zeroes pruned connections (approx package).
	Mask *tensor.Tensor

	dW *tensor.Tensor
	dB *tensor.Tensor

	adapter // ForwardBatch's arena

	// Int8 tier state (tier.go), mirroring Conv2D's.
	panel   *quant.Int8Panel
	useInt8 bool
	i8      tensor.Int8Scratch
}

// NewDense creates a dense layer with Gaussian init scaled by fan-in.
func NewDense(in, out int, r *rng.RNG) *Dense {
	d := &Dense{In: in, Out: out}
	d.W = tensor.New(out, in)
	sd := sqrt32(2 / float32(in))
	for i := range d.W.Data {
		d.W.Data[i] = r.NormFloat32() * sd
	}
	d.B = tensor.New(out)
	d.dW = tensor.New(out, in)
	d.dB = tensor.New(out)
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return "dense" }

// ForwardBatch implements Layer (see adapter).
func (d *Dense) ForwardBatch(x *tensor.Tensor, train bool) *tensor.Tensor {
	return d.forward(d, x, train)
}

// trainEffW is Conv2D.trainEffW for the dense layer.
func (d *Dense) trainEffW(ts *TrainScratch, li int) *tensor.Tensor {
	if d.Mask == nil {
		return d.W
	}
	effW, fresh := ts.once2(li, slotEffW, d.Out, d.In)
	if fresh {
		copy(effW.Data, d.W.Data)
		effW.Mul(d.Mask)
	}
	return effW
}

// ForwardBatchInto implements Layer ((B,In) → (B,Out)), the layer's one
// forward: one GEMM against the once-per-pass transposed weights,
// sparse input rows skipping wholesale, or at the INT8 tier in an
// inference pass the int8 GEMM against the prebuilt panel (which
// already carries the prune mask). A training pass also keeps a copy of
// the step's input in the arena for the weight gradient.
func (d *Dense) ForwardBatchInto(x *tensor.Tensor, ts *TrainScratch, li, t int) *tensor.Tensor {
	if x.Rank() != 2 || x.Shape[1] != d.In {
		panic(fmt.Sprintf("snn: Dense batch input %s, want (B,%d)", shapeStr(x.Shape), d.In)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	batch := x.Shape[0]
	out := ts.buf2(li, slotOut, -1, batch, d.Out)
	if ts.pass == passInfer && d.useInt8 {
		tensor.MatMulInt8Into(out.Data, x.Data, batch, d.In, d.panel.Codes, d.panel.Steps, d.Out, &d.i8)
	} else {
		wT, fresh := ts.once2(li, slotWT, d.In, d.Out)
		if fresh {
			tensor.TransposeInto(wT, d.trainEffW(ts, li))
		}
		tensor.MatMulInto(out, x, wT)
	}
	for b := 0; b < batch; b++ {
		row := out.Data[b*d.Out : (b+1)*d.Out]
		for o := range row {
			row[o] += d.B.Data[o]
		}
	}
	if ts.pass == passTrain {
		xc := ts.buf2(li, slotXCache, t, batch, d.In)
		copy(xc.Data, x.Data)
	}
	return out
}

// BackwardBatchInto implements Layer against the arena's per-step input
// cache, with the input-gradient GEMM result reused. A training pass
// leaves the weight and bias gradients to the reduction (reduceStep),
// recording the step's cached input and a copy of its output gradient
// for it; an input-gradient pass skips them. With needDX false (no
// parameter layer below) the input-gradient GEMM is skipped.
func (d *Dense) BackwardBatchInto(grad *tensor.Tensor, ts *TrainScratch, li, t int, needDX bool) *tensor.Tensor {
	batch := grad.Shape[0]
	if ts.pass == passTrain {
		g := ts.buf2(li, slotGradOut, t&1, batch, d.Out)
		copy(g.Data, grad.Data)
		*ts.stepGrad(li, t) = stepGrad{x: ts.cachedInput(li, t), g: g}
	}
	if !needDX {
		return nil
	}
	dx := ts.buf2(li, slotGrad, -1, batch, d.In)
	tensor.MatMulInto(dx, grad, d.trainEffW(ts, li))
	return dx
}

// Params implements ParamLayer.
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.W, d.B} }

// Grads implements ParamLayer.
func (d *Dense) Grads() []*tensor.Tensor { return []*tensor.Tensor{d.dW, d.dB} }
