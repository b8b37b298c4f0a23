package snn

import (
	"repro/internal/rng"
	"repro/internal/tensor"
)

// AvgPool is non-overlapping average pooling with window K; edge
// windows shrink.
type AvgPool struct {
	K       int
	adapter // ForwardBatch's arena
}

// NewAvgPool returns an average-pooling layer with window k.
func NewAvgPool(k int) *AvgPool { return &AvgPool{K: k} }

// Name implements Layer.
func (p *AvgPool) Name() string { return "avgpool" }

// ForwardBatch implements Layer (see adapter).
func (p *AvgPool) ForwardBatch(x *tensor.Tensor, train bool) *tensor.Tensor {
	return p.forward(p, x, train)
}

// ForwardBatchInto implements Layer: samples pool independently into
// one reused output tensor through cached sample views. Passes that run
// a backward keep the input dims it needs in the arena.
func (p *AvgPool) ForwardBatchInto(x *tensor.Tensor, ts *TrainScratch, li, t int) *tensor.Tensor {
	b, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if ts.pass != passInfer {
		dims := ts.ints(li, slotDims, -1, 3)
		dims[0], dims[1], dims[2] = c, h, w
	}
	oh, ow := (h+p.K-1)/p.K, (w+p.K-1)/p.K
	out := ts.buf4(li, slotOut, -1, b, c, oh, ow)
	for bi := 0; bi < b; bi++ {
		sv := ts.view3(li, slotInView, x.Data[bi*c*h*w:(bi+1)*c*h*w], c, h, w)
		dv := ts.view3(li, slotOutView, out.Data[bi*c*oh*ow:(bi+1)*c*oh*ow], c, oh, ow)
		tensor.AvgPool2DInto(dv, sv, p.K)
	}
	return out
}

// BackwardBatchInto implements Layer: each window's gradient spreads
// evenly over its cells, directly into one reused input-shaped tensor.
func (p *AvgPool) BackwardBatchInto(grad *tensor.Tensor, ts *TrainScratch, li, t int, needDX bool) *tensor.Tensor {
	if !needDX {
		return nil
	}
	dims := ts.ints(li, slotDims, -1, 3)
	c, h, w := dims[0], dims[1], dims[2]
	batch := grad.Shape[0]
	oh, ow := grad.Shape[2], grad.Shape[3]
	out := ts.buf4(li, slotGrad, -1, batch, c, h, w)
	for bi := 0; bi < batch; bi++ {
		gv := ts.view3(li, slotInView, grad.Data[bi*c*oh*ow:(bi+1)*c*oh*ow], c, oh, ow)
		dv := ts.view3(li, slotOutView, out.Data[bi*c*h*w:(bi+1)*c*h*w], c, h, w)
		tensor.AvgPool2DBackwardInto(dv, gv, p.K)
	}
	return out
}

// Dropout zeroes a random unit subset during training, with inverted
// scaling. The mask is drawn once per sample (on a training pass's
// first step) and reused across time steps, the convention for SNN
// training.
type Dropout struct {
	P float32 // drop probability

	r       *rng.RNG
	adapter // ForwardBatch's arena
}

// NewDropout returns a dropout layer with drop probability p, drawing
// masks from r.
func NewDropout(p float32, r *rng.RNG) *Dropout { return &Dropout{P: p, r: r} }

// Name implements Layer.
func (d *Dropout) Name() string { return "dropout" }

// ForwardBatch implements Layer (see adapter).
func (d *Dropout) ForwardBatch(x *tensor.Tensor, train bool) *tensor.Tensor {
	return d.forward(d, x, train)
}

// ForwardBatchInto implements Layer: in a training pass the mask takes
// the batched shape, so every sample draws its own, once per pass into
// an arena buffer, and is applied into a reused output tensor. A
// training block draws its own rows of the whole minibatch's mask: it
// first skips the draws of the samples before it (the arena's offset;
// Float32 takes one Uint64 per element). Inference passes through, and
// so do evaluation clones, which carry no RNG, in every pass.
func (d *Dropout) ForwardBatchInto(x *tensor.Tensor, ts *TrainScratch, li, t int) *tensor.Tensor {
	if ts.pass == passInfer || d.P <= 0 || d.r == nil {
		return x
	}
	mask, fresh := ts.onceShape(li, slotMask, x.Shape)
	if fresh {
		for i := ts.offset * (x.Len() / x.Shape[0]); i > 0; i-- {
			d.r.Uint64()
		}
		keep := 1 - d.P
		inv := 1 / keep
		for i := range mask.Data {
			if d.r.Float32() >= d.P {
				mask.Data[i] = inv
			} else {
				mask.Data[i] = 0
			}
		}
	}
	out := ts.bufShape(li, slotOut, -1, x.Shape)
	for i, v := range x.Data {
		out.Data[i] = v * mask.Data[i]
	}
	return out
}

// BackwardBatchInto implements Layer: the pass's mask gates the
// gradient into a reused buffer.
func (d *Dropout) BackwardBatchInto(grad *tensor.Tensor, ts *TrainScratch, li, t int, needDX bool) *tensor.Tensor {
	if !needDX {
		return nil
	}
	if d.P <= 0 || d.r == nil {
		return grad
	}
	mask := ts.bufShape(li, slotMask, -1, grad.Shape)
	out := ts.bufShape(li, slotGrad, -1, grad.Shape)
	for i, g := range grad.Data {
		out.Data[i] = g * mask.Data[i]
	}
	return out
}
