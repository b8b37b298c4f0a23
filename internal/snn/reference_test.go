package snn

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// The plain-loop reference the arena is tested against. It runs a
// network's own layers (their weights, prune masks, biases, dynamics
// and dropout streams) through allocating loops that share no kernel
// with the arena: from package tensor it calls only New and FromSlice.
// Every output adds its nonzero terms in the order the arena's kernels
// add them, and every product that feeds an add is rounded as
// float32(a*b), so the arena must match it under ==:
//
//   - a conv output adds its terms in ascending receptive-field
//     position, a dense output in ascending input index, each onto +0,
//     then the bias;
//   - each step's conv and dense weight gradients sum over ascending
//     (sample, position) onto +0 and fold into dW with the steps
//     descending; dB takes the terms as reduceStep adds them;
//   - the conv input gradient is, per (tap, position), a sum over
//     ascending output channel, and col2im adds each input's taps in
//     ascending order onto +0.
//
// A training pass draws each dropout mask once, at its first step, from
// the layer's RNG over the whole batch, sample-major. Every pass counts
// the LIF calibration statistics, StatVSum included, as Calibrate's
// pass does.

// refPass is one reference pass over a network: what its backward
// reads, per layer and step, and the LIF and dropout state of the pass.
type refPass struct {
	net   *Network
	train bool               // dropout draws masks; the backward accumulates dW and dB
	in    [][]*tensor.Tensor // in[li][t] is layer li's input at step t
	pre   [][]*tensor.Tensor // pre[li][t] is LIF layer li's pre-reset potential
	v     []*tensor.Tensor   // LIF membranes
	carry []*tensor.Tensor   // LIF dL/dV carried back through time
	mask  []*tensor.Tensor   // dropout masks
}

func newRefPass(n *Network, train bool) *refPass {
	p := &refPass{net: n, train: train,
		in: make([][]*tensor.Tensor, len(n.Layers)), pre: make([][]*tensor.Tensor, len(n.Layers)),
		v: make([]*tensor.Tensor, len(n.Layers)), carry: make([]*tensor.Tensor, len(n.Layers)),
		mask: make([]*tensor.Tensor, len(n.Layers))}
	for li := range n.Layers {
		p.in[li] = make([]*tensor.Tensor, n.Cfg.Steps)
		p.pre[li] = make([]*tensor.Tensor, n.Cfg.Steps)
	}
	return p
}

// refForward runs the reference forward over samples, stacked per step
// by StackFrames, and returns the pass and the (B, classes) logits.
func refForward(n *Network, samples [][]*tensor.Tensor, train bool) (*refPass, *tensor.Tensor) {
	p := newRefPass(n, train)
	var logits *tensor.Tensor
	for t, x := range StackFrames(samples, n.Cfg.Steps) {
		for li := range n.Layers {
			x = p.forward(li, t, x)
		}
		if logits == nil {
			logits = tensor.New(x.Shape...)
		}
		for i, v := range x.Data {
			logits.Data[i] += v
		}
	}
	return p, logits
}

// refLogits is the reference's inference logits.
func refLogits(n *Network, samples ...[]*tensor.Tensor) *tensor.Tensor {
	_, logits := refForward(n, samples, false)
	return logits
}

// backward runs BPTT from dL/dlogits after refForward: every step gets
// the same top gradient, the steps run in descending order, and a
// training pass accumulates the parameter layers' dW and dB. It returns
// each step's input gradient in forward order.
func (p *refPass) backward(gradLogits *tensor.Tensor) []*tensor.Tensor {
	steps := make([]*tensor.Tensor, p.net.Cfg.Steps)
	for t := len(steps) - 1; t >= 0; t-- {
		g := gradLogits
		for li := len(p.net.Layers) - 1; li >= 0; li-- {
			g = p.backwardLayer(li, t, g)
		}
		steps[t] = g
	}
	return steps
}

// refInputGrads is the per-step input gradients of the loss against
// labels on a weight-sharing clone, so dropout stays off, no parameter
// gradient is taken and n's LIF statistics stay as they were.
func refInputGrads(n *Network, samples [][]*tensor.Tensor, labels []int) []*tensor.Tensor {
	p, logits := refForward(n.CloneArchitecture(), samples, false)
	_, grad := refLoss(logits, labels)
	return p.backward(grad)
}

// refTrainStep is one training minibatch on the reference: forward,
// loss, and BPTT accumulating into n's gradients. It returns the summed
// loss.
func refTrainStep(n *Network, samples [][]*tensor.Tensor, labels []int) float64 {
	p, logits := refForward(n, samples, true)
	loss, grad := refLoss(logits, labels)
	p.backward(grad)
	return loss
}

// zeroGrads clears n's gradients.
func zeroGrads(n *Network) {
	for _, g := range n.Grads() {
		clear(g.Data)
	}
}

// refFit replays Train's and TrainFrames' minibatch loop on the
// reference over count samples: each epoch shuffles the order with the
// fit's RNG, and each minibatch takes its samples from sample, in order
// and with that RNG, then zeroes the gradients, runs refTrainStep,
// clips and steps the optimizer.
func refFit(n *Network, count int, opt TrainOptions, sample func(i int, r *rng.RNG) ([]*tensor.Tensor, int)) {
	r := rng.New(opt.Seed)
	idx := make([]int, count)
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for b := 0; b < len(idx); b += opt.BatchSize {
			var samples [][]*tensor.Tensor
			var labels []int
			for _, i := range idx[b:min(b+opt.BatchSize, len(idx))] {
				frames, label := sample(i, r)
				samples, labels = append(samples, frames), append(labels, label)
			}
			zeroGrads(n)
			refTrainStep(n, samples, labels)
			clipGradients(n.Grads(), opt.ClipNorm)
			opt.Optimizer.Step(n.Params(), n.Grads(), 1/float32(len(samples)))
		}
	}
}

// refLoss is softmax cross-entropy over (B, classes) logits: the summed
// loss and dL/dlogits. Each row's exponentials accumulate in float64
// from the row's maximum and normalize once in float32.
func refLoss(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	classes := logits.Shape[1]
	grad := tensor.New(logits.Shape...)
	total := 0.0
	for b, label := range labels {
		row, g := logits.Data[b*classes:(b+1)*classes], grad.Data[b*classes:(b+1)*classes]
		maxV := math.Inf(-1)
		for _, v := range row {
			maxV = math.Max(maxV, float64(v))
		}
		sum := 0.0
		for i, v := range row {
			e := math.Exp(float64(v) - maxV)
			g[i] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for i := range g {
			g[i] *= inv
		}
		total += -math.Log(math.Max(float64(g[label]), 1e-12))
		g[label] -= 1
	}
	return total, grad
}

// forward runs layer li at step t, keeping its input for the backward.
func (p *refPass) forward(li, t int, x *tensor.Tensor) *tensor.Tensor {
	p.in[li][t] = x
	switch l := p.net.Layers[li].(type) {
	case *Conv2D:
		return refConv(l, x)
	case *Dense:
		return refDense(l, x)
	case *LIF:
		return p.lif(li, t, l, x)
	case *AvgPool:
		return refPool(l.K, x)
	case *Flatten:
		return tensor.FromSlice(x.Data, x.Shape[0], len(x.Data)/x.Shape[0])
	case *Dropout:
		if !p.train || l.P <= 0 || l.r == nil {
			return x
		}
		if p.mask[li] == nil {
			p.mask[li] = tensor.New(x.Shape...)
			for i := range p.mask[li].Data {
				if l.r.Float32() >= l.P {
					p.mask[li].Data[i] = 1 / (1 - l.P)
				}
			}
		}
		return refMul(x, p.mask[li])
	}
	panic(fmt.Sprintf("snn reference: no forward for %T", p.net.Layers[li]))
}

// backwardLayer takes the gradient of layer li's step-t output back to
// its input, accumulating dW and dB in a training pass.
func (p *refPass) backwardLayer(li, t int, grad *tensor.Tensor) *tensor.Tensor {
	x := p.in[li][t]
	switch l := p.net.Layers[li].(type) {
	case *Conv2D:
		return p.convBackward(l, x, grad)
	case *Dense:
		return p.denseBackward(l, x, grad)
	case *LIF:
		dx := tensor.New(grad.Shape...)
		for i, g := range grad.Data {
			u := p.pre[li][t].Data[i] - l.VTh
			if u < 0 {
				u = -u
			}
			d := 1 + float32(l.Beta*u)
			dv := float32(g * (l.Beta / (d * d)))
			if p.carry[li] != nil {
				dv += float32(l.Decay * p.carry[li].Data[i])
			}
			dx.Data[i] = dv
		}
		p.carry[li] = dx
		return dx
	case *AvgPool:
		return refPoolBackward(l.K, x, grad)
	case *Flatten:
		return tensor.FromSlice(grad.Data, x.Shape...)
	case *Dropout:
		if p.mask[li] == nil {
			return grad
		}
		return refMul(grad, p.mask[li])
	}
	panic(fmt.Sprintf("snn reference: no backward for %T", p.net.Layers[li]))
}

// lif advances LIF layer li one step over the batch from the pass's
// membranes, caching the pre-reset potential as the arena does (the
// post-reset membrane plus the spike's threshold) and counting the
// calibration statistics per sample.
func (p *refPass) lif(li, t int, l *LIF, x *tensor.Tensor) *tensor.Tensor {
	if p.v[li] == nil {
		p.v[li] = tensor.New(x.Shape...)
	}
	v := p.v[li].Data
	out, pre := tensor.New(x.Shape...), tensor.New(x.Shape...)
	var spikes, vSum float64
	for i, in := range x.Data {
		vv := float32(l.Decay*v[i]) + in
		vSum += float64(vv)
		if vv >= l.VTh {
			out.Data[i] = 1
			spikes++
			vv -= l.VTh
		}
		v[i] = vv
		pre.Data[i] = vv + float32(out.Data[i]*l.VTh)
	}
	p.pre[li][t] = pre
	batch := x.Shape[0]
	l.StatSpikes += spikes / float64(batch)
	l.StatVSum += vSum / float64(len(x.Data))
	l.StatSteps++
	l.StatUnits = len(x.Data) / batch
	return out
}

// refEffW is w with the prune mask applied.
func refEffW(w, mask *tensor.Tensor) *tensor.Tensor {
	if mask == nil {
		return w
	}
	eff := tensor.New(w.Shape...)
	for i, v := range w.Data {
		eff.Data[i] = v * mask.Data[i]
	}
	return eff
}

// refMul is the elementwise product a·b.
func refMul(a, b *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(a.Shape...)
	for i, v := range a.Data {
		out.Data[i] = v * b.Data[i]
	}
	return out
}

// refTaps calls f for every kernel tap p = (c, ki, kj) of output
// (oi, oj) that reads inside sample b of the batched (B, C, H, W) input
// x, in ascending p, with the input it reads.
func refTaps(x *tensor.Tensor, g tensor.Conv2DGeom, b, oi, oj int, f func(p int, v float32)) {
	for c := 0; c < g.InC; c++ {
		for ki := 0; ki < g.KH; ki++ {
			si := oi*g.Stride + ki - g.Pad
			if si < 0 || si >= g.InH {
				continue
			}
			for kj := 0; kj < g.KW; kj++ {
				if sj := oj*g.Stride + kj - g.Pad; sj >= 0 && sj < g.InW {
					f((c*g.KH+ki)*g.KW+kj, x.Data[((b*g.InC+c)*g.InH+si)*g.InW+sj])
				}
			}
		}
	}
}

// refConv is the convolution (B, C, H, W) → (B, OutC, OutH, OutW).
func refConv(c *Conv2D, x *tensor.Tensor) *tensor.Tensor {
	g, w := c.Geom, refEffW(c.W, c.Mask)
	batch, oh, ow, ckk := x.Shape[0], g.OutH(), g.OutW(), g.InC*g.KH*g.KW
	out := tensor.New(batch, c.OutC, oh, ow)
	for b := 0; b < batch; b++ {
		for oc := 0; oc < c.OutC; oc++ {
			for j := 0; j < oh*ow; j++ {
				var s float32
				refTaps(x, g, b, j/ow, j%ow, func(p int, v float32) {
					if v != 0 {
						s += float32(v * w.Data[oc*ckk+p])
					}
				})
				out.Data[(b*c.OutC+oc)*oh*ow+j] = s + c.B.Data[oc]
			}
		}
	}
	return out
}

// convBackward is the conv layer's backward for one step: dB and dW in a
// training pass, and the input gradient.
func (p *refPass) convBackward(c *Conv2D, x, grad *tensor.Tensor) *tensor.Tensor {
	g, w := c.Geom, refEffW(c.W, c.Mask)
	batch, oh, ow, ckk := x.Shape[0], g.OutH(), g.OutW(), g.InC*g.KH*g.KW
	n := oh * ow
	if p.train {
		panel := tensor.New(c.OutC, ckk) // this step's dW, before it folds in
		for oc := 0; oc < c.OutC; oc++ {
			var s float32
			for b := 0; b < batch; b++ {
				for j := 0; j < n; j++ {
					s += grad.Data[(b*c.OutC+oc)*n+j]
				}
			}
			c.dB.Data[oc] += s
			for b := 0; b < batch; b++ {
				for j := 0; j < n; j++ {
					gv := grad.Data[(b*c.OutC+oc)*n+j]
					refTaps(x, g, b, j/ow, j%ow, func(tap int, v float32) {
						if v != 0 {
							panel.Data[oc*ckk+tap] += float32(v * gv)
						}
					})
				}
			}
		}
		for i, v := range panel.Data {
			c.dW.Data[i] += v
		}
	}
	// dcols[b][j][tap] sums the tap's terms over ascending output channel.
	dcols := tensor.New(batch, n, ckk)
	for b := 0; b < batch; b++ {
		for j := 0; j < n; j++ {
			for tap := 0; tap < ckk; tap++ {
				var d float32
				for oc := 0; oc < c.OutC; oc++ {
					if wv := w.Data[oc*ckk+tap]; wv != 0 {
						d += float32(wv * grad.Data[(b*c.OutC+oc)*n+j])
					}
				}
				dcols.Data[(b*n+j)*ckk+tap] = d
			}
		}
	}
	// col2im: each input adds its taps in ascending order.
	dx := tensor.New(x.Shape...)
	for b := 0; b < batch; b++ {
		for ch := 0; ch < g.InC; ch++ {
			for si := 0; si < g.InH; si++ {
				for sj := 0; sj < g.InW; sj++ {
					var s float32
					for ki := 0; ki < g.KH; ki++ {
						for kj := 0; kj < g.KW; kj++ {
							ti, tj := si+g.Pad-ki, sj+g.Pad-kj
							if ti < 0 || tj < 0 || ti%g.Stride != 0 || tj%g.Stride != 0 || ti/g.Stride >= oh || tj/g.Stride >= ow {
								continue
							}
							s += dcols.Data[(b*n+ti/g.Stride*ow+tj/g.Stride)*ckk+(ch*g.KH+ki)*g.KW+kj]
						}
					}
					dx.Data[((b*g.InC+ch)*g.InH+si)*g.InW+sj] = s
				}
			}
		}
	}
	return dx
}

// refDense is the dense layer (B, In) → (B, Out).
func refDense(d *Dense, x *tensor.Tensor) *tensor.Tensor {
	w := refEffW(d.W, d.Mask)
	batch := x.Shape[0]
	out := tensor.New(batch, d.Out)
	for b := 0; b < batch; b++ {
		for o := 0; o < d.Out; o++ {
			var s float32
			for i, v := range x.Data[b*d.In : (b+1)*d.In] {
				if v != 0 {
					s += float32(v * w.Data[o*d.In+i])
				}
			}
			out.Data[b*d.Out+o] = s + d.B.Data[o]
		}
	}
	return out
}

// denseBackward is the dense layer's backward for one step: dW and dB
// in a training pass, and the input gradient.
func (p *refPass) denseBackward(d *Dense, x, grad *tensor.Tensor) *tensor.Tensor {
	w := refEffW(d.W, d.Mask)
	batch := x.Shape[0]
	if p.train {
		for o := 0; o < d.Out; o++ {
			for i := 0; i < d.In; i++ {
				var s float32
				for b := 0; b < batch; b++ {
					if v := x.Data[b*d.In+i]; v != 0 {
						s += float32(v * grad.Data[b*d.Out+o])
					}
				}
				d.dW.Data[o*d.In+i] += s
			}
		}
		for b := 0; b < batch; b++ {
			for o := 0; o < d.Out; o++ {
				d.dB.Data[o] += grad.Data[b*d.Out+o]
			}
		}
	}
	dx := tensor.New(batch, d.In)
	for b := 0; b < batch; b++ {
		for i := 0; i < d.In; i++ {
			var s float32
			for o, gv := range grad.Data[b*d.Out : (b+1)*d.Out] {
				if gv != 0 {
					s += float32(gv * w.Data[o*d.In+i])
				}
			}
			dx.Data[b*d.In+i] = s
		}
	}
	return dx
}

// refPool is k×k average pooling over (B, C, H, W); edge windows
// shrink.
func refPool(k int, x *tensor.Tensor) *tensor.Tensor {
	batch, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := (h+k-1)/k, (w+k-1)/k
	out := tensor.New(batch, c, oh, ow)
	for plane := 0; plane < batch*c; plane++ {
		for oi := 0; oi < oh; oi++ {
			for oj := 0; oj < ow; oj++ {
				var s float32
				n := 0
				for i := oi * k; i < min((oi+1)*k, h); i++ {
					for j := oj * k; j < min((oj+1)*k, w); j++ {
						s += x.Data[(plane*h+i)*w+j]
						n++
					}
				}
				out.Data[(plane*oh+oi)*ow+oj] = s / float32(n)
			}
		}
	}
	return out
}

// refPoolBackward spreads each window's gradient evenly over the cells
// of refPool's input x.
func refPoolBackward(k int, x, grad *tensor.Tensor) *tensor.Tensor {
	batch, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := grad.Shape[2], grad.Shape[3]
	dx := tensor.New(x.Shape...)
	for plane := 0; plane < batch*c; plane++ {
		for oi := 0; oi < oh; oi++ {
			for oj := 0; oj < ow; oj++ {
				rows, cols := min((oi+1)*k, h)-oi*k, min((oj+1)*k, w)-oj*k
				gv := grad.Data[(plane*oh+oi)*ow+oj] / float32(rows*cols)
				for i := oi * k; i < oi*k+rows; i++ {
					for j := oj * k; j < oj*k+cols; j++ {
						dx.Data[(plane*h+i)*w+j] += gv
					}
				}
			}
		}
	}
	return dx
}
