package snn

import (
	"repro/internal/rng"
	"repro/internal/tensor"
)

// AvgPool is non-overlapping average pooling with window K.
type AvgPool struct {
	K      int
	inDims [][3]int // cached (C,H,W) per step
}

// NewAvgPool returns an average-pooling layer with window k.
func NewAvgPool(k int) *AvgPool { return &AvgPool{K: k} }

// Name implements Layer.
func (p *AvgPool) Name() string { return "avgpool" }

// ForwardBatch implements Layer: samples pool independently.
func (p *AvgPool) ForwardBatch(x *tensor.Tensor, train bool) *tensor.Tensor {
	batch, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if train {
		p.inDims = append(p.inDims, [3]int{c, h, w})
	}
	oh, ow := (h+p.K-1)/p.K, (w+p.K-1)/p.K
	out := tensor.New(batch, c, oh, ow)
	for b := 0; b < batch; b++ {
		po := tensor.AvgPool2D(sampleView(x, b), p.K)
		copy(out.Data[b*c*oh*ow:(b+1)*c*oh*ow], po.Data)
	}
	return out
}

// ForwardBatchInto implements trainLayer: samples pool into one reused
// output tensor through cached sample views. Passes that run a backward
// keep the input dims it needs in the arena.
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

// BackwardBatchInto implements trainLayer: BackwardBatch scattering
// directly into one reused input-shaped tensor.
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

// BackwardBatch implements Layer.
func (p *AvgPool) BackwardBatch(grad *tensor.Tensor) *tensor.Tensor {
	n := len(p.inDims)
	if n == 0 {
		panic("snn: AvgPool.BackwardBatch without cached forward step")
	}
	d := p.inDims[n-1]
	p.inDims = p.inDims[:n-1]
	batch := grad.Shape[0]
	out := tensor.New(batch, d[0], d[1], d[2])
	chw := d[0] * d[1] * d[2]
	for b := 0; b < batch; b++ {
		dx := tensor.AvgPool2DBackward(sampleView(grad, b), p.K, d[1], d[2])
		copy(out.Data[b*chw:(b+1)*chw], dx.Data)
	}
	return out
}

// Reset implements Layer.
func (p *AvgPool) Reset() { p.inDims = p.inDims[:0] }

// sampleView returns sample b of a batched (B, d...) tensor as a view
// with the batch axis stripped; no data is copied.
func sampleView(x *tensor.Tensor, b int) *tensor.Tensor {
	per := x.Len() / x.Shape[0]
	return tensor.FromSlice(x.Data[b*per:(b+1)*per], x.Shape[1:]...)
}

// Dropout zeroes a random unit subset during training, with inverted
// scaling. The mask is drawn once per sample (on the first step after
// Reset) and reused across time steps, the convention for SNN training.
type Dropout struct {
	P float32 // drop probability

	r    *rng.RNG
	mask *tensor.Tensor
}

// NewDropout returns a dropout layer with drop probability p, drawing
// masks from r.
func NewDropout(p float32, r *rng.RNG) *Dropout { return &Dropout{P: p, r: r} }

// Name implements Layer.
func (d *Dropout) Name() string { return "dropout" }

// ForwardBatch implements Layer: the mask matches the batched shape, so
// every sample draws its own mask, once per network reset.
func (d *Dropout) ForwardBatch(x *tensor.Tensor, train bool) *tensor.Tensor {
	// Evaluation clones carry no RNG: dropout is then a pass-through even
	// when caches are being recorded (e.g. attack gradient computation).
	if !train || d.P <= 0 || d.r == nil {
		return x
	}
	if d.mask == nil || !tensor.SameShape(d.mask, x) {
		d.mask = tensor.New(x.Shape...)
		keep := 1 - d.P
		inv := 1 / keep
		for i := range d.mask.Data {
			if d.r.Float32() >= d.P {
				d.mask.Data[i] = inv
			}
		}
	}
	out := x.Clone()
	out.Mul(d.mask)
	return out
}

// ForwardBatchInto implements trainLayer: the mask is drawn once per
// pass into an arena buffer (consuming the RNG stream exactly like the
// allocating path) and applied into a reused output tensor. A training
// block draws its own rows of the whole minibatch's mask: it first
// skips the draws of the samples before it (the arena's offset;
// Float32 takes one Uint64 per element). Inference passes through, and
// so do evaluation clones, which carry no RNG, like ForwardBatch does.
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

// BackwardBatchInto implements trainLayer: the pass's mask gates the
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

// BackwardBatch implements Layer.
func (d *Dropout) BackwardBatch(grad *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return grad
	}
	out := grad.Clone()
	out.Mul(d.mask)
	return out
}

// Reset implements Layer.
func (d *Dropout) Reset() { d.mask = nil }
