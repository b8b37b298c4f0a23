package snn

import (
	"fmt"

	"repro/internal/tensor"
)

// Training on sample blocks. TrainStepScratch splits a minibatch of B
// samples into min(Workers(), B) contiguous blocks and trains each on a
// weight-sharing clone of the network with its own arena; the caller's
// TrainScratch owns the clones and their arenas (blockFan) and builds
// them on first use. Everything a sample's gradient needs runs per
// block over tensor.ParallelFor: the training forward, then for
// t = T−1 … 0 step t's reverse chain. The only sums across samples, the
// parameter layers' weight and bias gradients, are left to one
// reduction per (parameter layer, step): once the blocks have finished
// step t, every parameter layer runs as its own task, reads each
// block's cached input and output gradient in sample order and folds
// them into dW and dB (gradReducer), while the blocks run step t−1's
// chain beside it. Each block keeps its output gradients for two steps
// (one buffer per step parity), which is all the overlap holds. The
// reduction adds each step's terms in sample order, as one backward
// over the whole batch would, and each layer folds its steps in
// descending order, so the trained weights are bit-identical at any
// worker count; one worker runs a single block through the same path.
//
// The loss is computed once over the assembled (B, classes) logits on
// the caller's arena, so its float64 sum keeps the whole-batch order.
// Dropout draws one mask per pass over the whole batch, sample-major:
// every block seeds its dropout layer from the layer's own stream and
// skips the draws of the samples before it (rng.Float32 takes one
// Uint64 each), and the layer's stream continues from the last block's
// copy. Each block's LIF statistics land on its clone; nothing reads a
// network's statistics after a fit without resetting them first
// (Calibrate does).

// stepGrad is what a training block's parameter layer leaves for the
// reduction at one step: its cached input x and a copy g of its output
// gradient, channel-last rows (B·N, OutC) for Conv2D.
type stepGrad struct {
	x, g *tensor.Tensor
}

// trainBlock is one contiguous run [lo, hi) of the minibatch's samples,
// trained on its own clone and arena.
type trainBlock struct {
	net    *Network
	ts     *TrainScratch
	lo, hi int
	logits *tensor.Tensor // the block's (hi−lo, classes) logits
	grad   *tensor.Tensor // its rows of dL/dlogits, a view
}

// gradReducer is the parameter layers' half of the reduction.
type gradReducer interface {
	// reduceStep folds step t's weight and bias gradients of every
	// block into the layer's dW and dB, in sample order.
	reduceStep(blocks []*trainBlock, r *reduceTask, t int)
}

// reduceTask is one parameter layer's reduction and its buffers.
type reduceTask struct {
	layer gradReducer
	li    int
	panel *tensor.Tensor // the step's summed weight-gradient panel
	x     *tensor.Tensor // one sample's input header (Conv2D)
}

// blockFan is a network's training fan-out: the sample blocks, one
// reduction task per parameter layer, and the fan-out bodies, all built
// once and kept with the arena that owns them.
type blockFan struct {
	blocks []*trainBlock // every block built so far
	active []*trainBlock // the running step's blocks, a prefix of blocks
	tasks  []reduceTask
	drops  []int // dropout layers that draw masks

	samples [][]*tensor.Tensor // the running step's minibatch
	t       int                // the step the blocks' chains run
	chains  int                // how many chains run beside the reduction

	forward, backward func(lo, hi int)
}

// newBlockFan builds n's fan-out with no blocks yet.
//
//axsnn:allow-alloc builds the fan-out once per arena; kept with it thereafter
func newBlockFan(n *Network) *blockFan {
	f := &blockFan{}
	for li, l := range n.Layers {
		switch v := l.(type) {
		case *Conv2D:
			g := v.Geom
			f.tasks = append(f.tasks, reduceTask{layer: v, li: li,
				panel: tensor.New(g.InC*g.KH*g.KW, v.OutC),
				x:     &tensor.Tensor{Shape: []int{g.InC, g.InH, g.InW}}})
		case *Dense:
			f.tasks = append(f.tasks, reduceTask{layer: v, li: li, panel: tensor.New(v.In, v.Out)})
		case *Dropout:
			if v.r != nil {
				f.drops = append(f.drops, li)
			}
		case ParamLayer:
			panic(fmt.Sprintf("snn: layer %d (%T) has no gradient reduction", li, l))
		}
	}
	f.forward = func(lo, hi int) {
		for _, bk := range f.active[lo:hi] {
			bk.logits = bk.net.forwardPass(f.samples[bk.lo:bk.hi], bk.ts, passTrain)
		}
	}
	f.backward = func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if i < f.chains {
				bk := f.active[i]
				bk.net.backwardStep(bk.grad, bk.ts, f.t)
			} else {
				r := &f.tasks[i-f.chains]
				r.layer.reduceStep(f.active, r, f.t+1)
			}
		}
	}
	return f
}

// addBlock builds one more block: a weight-sharing clone whose dropout
// layers own an RNG, which syncBlock seeds from the layer's each step.
//
//axsnn:allow-alloc builds a block clone and its arena once; kept with the caller's arena thereafter
func (f *blockFan) addBlock(n *Network) {
	c := n.CloneArchitecture()
	for _, li := range f.drops {
		r := *n.Layers[li].(*Dropout).r
		c.Layers[li].(*Dropout).r = &r
	}
	f.blocks = append(f.blocks, &trainBlock{net: c, ts: c.AcquireTrainScratch()})
}

// split points min(Workers(), batch) blocks at contiguous, near-equal
// shares of a batch, and at n's current weights, masks and dynamics.
func (f *blockFan) split(n *Network, batch int) {
	nb := min(tensor.Workers(), batch)
	for len(f.blocks) < nb {
		f.addBlock(n)
	}
	f.active = f.blocks[:nb]
	for k, bk := range f.active {
		bk.lo, bk.hi = k*batch/nb, (k+1)*batch/nb
		bk.ts.offset = bk.lo
		syncBlock(n, bk.net)
	}
}

// syncBlock points a block clone at src's current weights, masks,
// dynamics and config, so a change to src between steps reaches it,
// and starts its dropout streams at src's.
func syncBlock(src, dst *Network) {
	dst.Cfg = src.Cfg
	for i, l := range src.Layers {
		switch v := l.(type) {
		case *Conv2D:
			c := dst.Layers[i].(*Conv2D)
			c.W, c.B, c.Mask = v.W, v.B, v.Mask
		case *Dense:
			d := dst.Layers[i].(*Dense)
			d.W, d.B, d.Mask = v.W, v.B, v.Mask
		case *LIF:
			lif := dst.Layers[i].(*LIF)
			lif.VTh, lif.Decay, lif.Beta = v.VTh, v.Decay, v.Beta
		case *Dropout:
			d := dst.Layers[i].(*Dropout)
			d.P = v.P
			if v.r != nil {
				*d.r = *v.r // the pass's stream starts where the layer's is
			}
		}
	}
}

// TrainStepScratch runs one batched training minibatch against the
// arena — training-mode forward, softmax cross-entropy, BPTT gradient
// accumulation — and returns the summed loss. samples[b] is sample b's
// frame list and labels[b] its class. Gradients accumulate into the
// network's gradient tensors (the caller zeroes and consumes them), bit
// for bit the same at any worker count. The step fans out over sample blocks on the shared worker
// pool (see the top of this file); in the steady state it performs
// zero allocations.
func (n *Network) TrainStepScratch(samples [][]*tensor.Tensor, labels []int, ts *TrainScratch) float64 {
	checkSamples(samples, n.Cfg.Steps)
	if ts.fan == nil {
		ts.fan = newBlockFan(n)
	}
	f := ts.fan
	f.split(n, len(samples))
	f.samples = samples
	tensor.ParallelFor(len(f.active), 1, f.forward)
	f.samples = nil
	last := f.active[len(f.active)-1].net
	for _, li := range f.drops {
		*n.Layers[li].(*Dropout).r = *last.Layers[li].(*Dropout).r
	}

	classes := f.active[0].logits.Len() / (f.active[0].hi - f.active[0].lo)
	logits := ts.sc.buf2(netLayer, slotLogits, len(samples), classes)
	for _, bk := range f.active {
		copy(logits.Data[bk.lo*classes:bk.hi*classes], bk.logits.Data)
	}
	grad := ts.buf2(netLayer, slotLossGrad, -1, len(samples), classes)
	loss := SoftmaxCrossEntropyBatchInto(logits, labels, grad)
	for _, bk := range f.active {
		bk.grad = bk.ts.view2(netLayer, slotGradView, grad.Data[bk.lo*classes:bk.hi*classes], bk.hi-bk.lo, classes)
	}

	// BPTT: the blocks run step t's chain while the parameter layers
	// reduce step t+1, so each layer still folds its steps in
	// descending order.
	for t := n.Cfg.Steps - 1; t >= -1; t-- {
		f.t, f.chains = t, len(f.active)
		if t < 0 {
			f.chains = 0
		}
		reduces := len(f.tasks)
		if t == n.Cfg.Steps-1 {
			reduces = 0
		}
		tensor.ParallelFor(f.chains+reduces, 1, f.backward)
	}
	return loss
}

// reduceStep implements gradReducer: dB sums each channel over (b, j)
// in ascending order, and each sample's nonzero inputs scatter its
// channel-last output gradient into the zeroed tap-reversed panel
// (tensor.ConvWeightGradScatterAcc) in sample order, so each weight's
// step gradient adds its terms in ascending (sample, position) order;
// the panel folds into dW once.
func (c *Conv2D) reduceStep(blocks []*trainBlock, r *reduceTask, t int) {
	g := c.Geom
	n := g.OutH() * g.OutW()
	chw := g.InC * g.InH * g.InW
	for oc := 0; oc < c.OutC; oc++ {
		var s float32
		for _, bk := range blocks {
			gT := bk.ts.stepGrad(r.li, t).g.Data
			for i := oc; i < len(gT); i += c.OutC {
				s += gT[i]
			}
		}
		c.dB.Data[oc] += s
	}
	r.panel.Zero()
	for _, bk := range blocks {
		sg := bk.ts.stepGrad(r.li, t)
		for b := 0; b < sg.x.Shape[0]; b++ {
			r.x.Data = sg.x.Data[b*chw : (b+1)*chw]
			tensor.ConvWeightGradScatterAcc(r.panel.Data, r.x, sg.g.Data[b*n*c.OutC:(b+1)*n*c.OutC], c.OutC, g)
		}
	}
	r.x.Data = nil
	tensor.AddConvScatterWeights(c.dW, r.panel, g)
}

// reduceStep implements gradReducer: dWᵀ = xᵀ·grad over the whole
// minibatch, with the spike-sparse x rows driving TMatMulAcc's skip
// path. TMatMulAcc adds the samples in ascending order, so running it
// block by block adds the whole minibatch's terms in sample order. dB
// adds element by element in sample order.
func (d *Dense) reduceStep(blocks []*trainBlock, r *reduceTask, t int) {
	r.panel.Zero()
	for _, bk := range blocks {
		sg := bk.ts.stepGrad(r.li, t)
		tensor.TMatMulAcc(r.panel, sg.x, sg.g)
	}
	d.dW.AddTransposed(r.panel)
	for _, bk := range blocks {
		grad := bk.ts.stepGrad(r.li, t).g
		for b := 0; b < grad.Shape[0]; b++ {
			for o, g := range grad.Data[b*d.Out : (b+1)*d.Out] {
				d.dB.Data[o] += g
			}
		}
	}
}
