package snn

import (
	"fmt"

	"repro/internal/tensor"
)

// The training arena. PR 2's inference Scratch closed the forward-only
// allocation hole, but every BPTT minibatch still allocated fresh
// per-step forward caches (LIF pre-reset potentials, conv im2col
// panels, pool argmax maps, dense input clones), fresh gradient tensors
// on the way back, and a fresh StackFrames batch — exactly where
// training, adversarial crafting and the experiment grids spend their
// wall-clock. A TrainScratch owns all of those buffers, keyed by
// (layer, slot, time step), so a steady-state training step allocates
// no tensors at all once shapes have been seen.
//
// Layout: per-step caches (what the reverse pass pops) are a ring of
// Cfg.Steps buffers per (layer, slot), addressed by folding the step
// into the slot space; per-layer transients (outputs, gradient buffers)
// and once-per-pass panels (effective weights, dropout masks) reuse a
// single buffer. Because the caches are indexed by step rather than
// pushed on stacks, the backward pass can also skip work the allocating
// path could not: layers at or below the lowest parameter layer never
// compute input gradients unless the caller asked for them (attacks
// do, Train does not).
//
// Two passes run on the arena, and the entry point picks the mode.
// TrainStepScratch is full BPTT: it accumulates every parameter
// gradient, so Conv2D caches each step's im2col panel and Dense its
// input for the weight-gradient GEMMs. InputGradSumScratch is the
// attack's input-only pass: crafting needs only dL/dx, so it computes
// no parameter gradient and caches nothing that only a weight gradient
// reads. Its conv forward runs the event-driven inference scatter
// (tensor.ConvScatterInto, as forwardArena does) instead of lowering.
//
// Lifecycle: Network.AcquireTrainScratch hands out an arena (recycled
// from a per-network free list) that also caches the network's
// parameter and gradient tensor lists; Network.ReleaseTrain returns it.
// snn.Train/TrainFrames acquire one per fit and the gradient attacks
// one per crafting call, so callers keep the old one-line APIs. A
// TrainScratch belongs to one network and must not be shared between
// goroutines; concurrent training uses clones, each with its own arena.
//
// Correctness: the arena passes run the same serial kernels in the
// same accumulation order as the allocating ForwardBatch/BackwardBatch,
// so losses, input gradients and trained weights are bit-identical to
// the pre-arena path, and to themselves at any worker count (pinned by
// train_arena_test.go).
// Two kernel swaps change no value. The conv weight-gradient GEMM runs
// tensor.MatMulTColSkipAcc instead of MatMulTAcc, and skips exact zero
// products only. The input-only conv forward's scatter adds each
// output's terms in the im2col GEMM's ascending-p order and differs
// from it only by ±0 products (tensor.TestConvScatterMatchesGEMM), so
// the input gradients are unchanged.

// trainSlotStride folds the time step into the slot space: per-step
// slot s at step t lives at s + trainSlotStride·(t+1), per-pass slots
// at s itself. The slot enumeration in arena.go must stay below it.
const trainSlotStride = 32

var _ [trainSlotStride - slotCount]struct{} // slots must fit the stride

// tslot maps (slot, step) to the folded slot index; t = -1 addresses
// the per-pass/per-layer instance.
func tslot(slot, t int) int { return slot + trainSlotStride*(t+1) }

// TrainScratch is a per-network arena of reusable BPTT buffers.
type TrainScratch struct {
	sc    Scratch
	steps int

	// params/grads are the network's parameter and gradient tensors,
	// cached so the train loop (gradient clipping, optimizer steps,
	// zeroing) never rebuilds the slices.
	params, grads []*tensor.Tensor

	// frames is the reusable header slice StackFramesInto returns.
	frames []*tensor.Tensor

	// intm holds reusable int scratch (pool argmax rings, pool dims,
	// GEMM nonzero-index buffers), keyed like the tensor buffers.
	intm map[slotKey][]int

	// inputOnly marks an InputGradSumScratch pass: Conv2D and Dense
	// compute no parameter gradient and cache nothing only a weight
	// gradient reads.
	inputOnly bool

	// gradSteps holds the per-step input gradients of the last
	// input-only pass, in forward order (see InputGradSteps).
	gradSteps []*tensor.Tensor
}

// trainLayer is implemented by every built-in layer: training-mode
// batched forward/backward (ForwardBatch(x, true) semantics) that draw
// all working memory from the arena. li is the layer's position, t the
// time step (forward ascending, backward descending). BackwardBatchInto
// may return nil when needDX is false — the caller does not need the
// input gradient, so layers without parameters below them skip that
// work entirely.
type trainLayer interface {
	BatchLayer
	ForwardBatchInto(x *tensor.Tensor, ts *TrainScratch, li, t int) *tensor.Tensor
	BackwardBatchInto(grad *tensor.Tensor, ts *TrainScratch, li, t int, needDX bool) *tensor.Tensor
}

// Buffer accessors: thin wrappers folding the step into the inference
// Scratch machinery (sizing, shape reuse, state zeroing, generations).

func (ts *TrainScratch) buf2(li, slot, t, a, b int) *tensor.Tensor {
	return ts.sc.buf2(li, tslot(slot, t), a, b)
}

func (ts *TrainScratch) buf4(li, slot, t, a, b, c, d int) *tensor.Tensor {
	return ts.sc.buf4(li, tslot(slot, t), a, b, c, d)
}

func (ts *TrainScratch) bufShape(li, slot, t int, shape []int) *tensor.Tensor {
	return ts.sc.bufShape(li, tslot(slot, t), shape)
}

func (ts *TrainScratch) stateBufShape(li, slot int, shape []int) *tensor.Tensor {
	return ts.sc.stateBufShape(li, tslot(slot, -1), shape)
}

func (ts *TrainScratch) once2(li, slot, a, b int) (*tensor.Tensor, bool) {
	return ts.sc.once2(li, tslot(slot, -1), a, b)
}

func (ts *TrainScratch) onceShape(li, slot int, shape []int) (*tensor.Tensor, bool) {
	return ts.sc.onceShape(li, tslot(slot, -1), shape)
}

func (ts *TrainScratch) view2(li, slot int, data []float32, a, b int) *tensor.Tensor {
	return ts.sc.view2(li, tslot(slot, -1), data, a, b)
}

func (ts *TrainScratch) view3(li, slot int, data []float32, a, b, c int) *tensor.Tensor {
	return ts.sc.view3(li, tslot(slot, -1), data, a, b, c)
}

func (ts *TrainScratch) viewShape(li, slot int, data []float32, shape []int) *tensor.Tensor {
	return ts.sc.viewShape(li, tslot(slot, -1), data, shape)
}

// ints returns a reusable int scratch of length n for (layer, slot,
// step). Contents persist between forward and backward of one pass.
func (ts *TrainScratch) ints(li, slot, t, n int) []int {
	k := slotKey{li, tslot(slot, t)}
	b := ts.intm[k]
	if cap(b) < n {
		b = make([]int, n) //axsnn:allow-alloc grows only when the slot length increases
		ts.intm[k] = b
	}
	return b[:n]
}

// Params returns the network's parameter tensors (cached at acquire).
func (ts *TrainScratch) Params() []*tensor.Tensor { return ts.params }

// Grads returns the gradient tensors aligned with Params.
func (ts *TrainScratch) Grads() []*tensor.Tensor { return ts.grads }

// ZeroGrads clears every gradient tensor without rebuilding the slice
// (the allocation-free form of Network.ZeroGrads).
func (ts *TrainScratch) ZeroGrads() {
	for _, g := range ts.grads {
		g.Zero()
	}
}

// StackFramesInto assembles per-sample frame sequences into the arena's
// per-step batched frame buffers — StackFrames reusing one ring of
// Cfg.Steps tensors across minibatches. The returned slice and tensors
// are owned by the arena and valid until the next StackFramesInto.
func (ts *TrainScratch) StackFramesInto(samples [][]*tensor.Tensor) []*tensor.Tensor {
	if len(samples) == 0 {
		panic("snn: StackFramesInto with no samples")
	}
	batch := len(samples)
	shape := samples[0][0].Shape
	per := samples[0][0].Len()
	if cap(ts.frames) < ts.steps {
		ts.frames = make([]*tensor.Tensor, ts.steps) //axsnn:allow-alloc frame ring allocated once per arena
	}
	frames := ts.frames[:ts.steps]
	for t := 0; t < ts.steps; t++ {
		f := ts.sc.sized(netLayer, tslot(slotFrame, t), batch*per).t
		if len(f.Shape) != 1+len(shape) {
			f.Shape = make([]int, 1+len(shape)) //axsnn:allow-alloc rank changes at most once per slot
		}
		f.Shape[0] = batch
		copy(f.Shape[1:], shape)
		for b, fr := range samples {
			src := fr[min(t, len(fr)-1)]
			if src.Len() != per {
				panic(fmt.Sprintf("snn: StackFramesInto sample %d frame size %d, want %d", b, src.Len(), per)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
			}
			copy(f.Data[b*per:(b+1)*per], src.Data)
		}
		frames[t] = f
	}
	return frames
}

// TrainArenaCapable reports whether every layer supports the training
// arena (all built-in layers do), caching the layer view on first use.
//
//axsnn:allow-alloc caches the training layer view; runs once per network
func (n *Network) TrainArenaCapable() bool {
	if !n.trainInit {
		n.trainInit = true
		n.paramFloor = len(n.Layers)
		ls := make([]trainLayer, 0, len(n.Layers))
		for i, l := range n.Layers {
			tl, ok := l.(trainLayer)
			if !ok {
				return false
			}
			if _, isParam := l.(ParamLayer); isParam && i < n.paramFloor {
				n.paramFloor = i
			}
			ls = append(ls, tl)
		}
		n.trainLs = ls
	}
	return n.trainLs != nil
}

// AcquireTrainScratch returns a training arena for this network,
// recycled from the network's free list when one is parked there. Pair
// with ReleaseTrain. Not safe for concurrent use — concurrent training
// runs on clones, each owning its arena. The arena caches the network's
// Params/Grads lists, so acquire a fresh one after structural surgery
// that replaces parameter tensors.
func (n *Network) AcquireTrainScratch() *TrainScratch {
	if k := len(n.trainFree); k > 0 {
		ts := n.trainFree[k-1]
		n.trainFree = n.trainFree[:k-1]
		ts.steps = n.Cfg.Steps
		return ts
	}
	return &TrainScratch{
		sc:     Scratch{m: make(map[slotKey]*scratchEntry)},
		steps:  n.Cfg.Steps,
		params: n.Params(),
		grads:  n.Grads(),
		intm:   make(map[slotKey][]int),
	}
}

// ReleaseTrain parks a training arena for reuse by the next
// AcquireTrainScratch, dropping any borrowed data references.
func (n *Network) ReleaseTrain(ts *TrainScratch) {
	if ts == nil {
		return
	}
	ts.sc.release()
	n.trainFree = append(n.trainFree, ts)
}

// forwardTrainScratch runs a training-mode batched forward pass against
// the arena and returns the accumulated logits, which live in the arena
// and are valid until its next pass. frames[t] is (B, sample shape...).
func (n *Network) forwardTrainScratch(frames []*tensor.Tensor, ts *TrainScratch) *tensor.Tensor {
	if len(frames) == 0 {
		panic("snn: ForwardBatch with no input frames")
	}
	if !n.TrainArenaCapable() {
		panic("snn: network has non-arena layers; use ForwardBatch")
	}
	n.Reset()
	ts.sc.begin()
	var logits *tensor.Tensor
	for t := 0; t < n.Cfg.Steps; t++ {
		x := frames[min(t, len(frames)-1)]
		for li, l := range n.trainLs {
			x = l.ForwardBatchInto(x, ts, li, t)
		}
		if logits == nil {
			logits = ts.sc.bufShape(netLayer, slotLogits, x.Shape)
			logits.Zero()
		}
		logits.Add(x)
	}
	return logits
}

// backwardTrainScratch completes BPTT after forwardTrainScratch. A
// training pass accumulates parameter gradients and returns nil; layers
// below the lowest parameter layer skip their input-gradient work
// entirely. An input-only pass returns Σ_t dL/dframe_t (the
// attack-crafting quantity), summed in ascending step order exactly
// like encoding.SumFrameGradients folds the allocating path's per-step
// list, and keeps the per-step terms in gradSteps.
func (n *Network) backwardTrainScratch(gradLogits *tensor.Tensor, ts *TrainScratch) *tensor.Tensor {
	for t := n.Cfg.Steps - 1; t >= 0; t-- {
		g := gradLogits
		for li := len(n.trainLs) - 1; li >= 0; li-- {
			needDX := ts.inputOnly || li > n.paramFloor
			g = n.trainLs[li].BackwardBatchInto(g, ts, li, t, needDX)
			if g == nil {
				break
			}
		}
		if ts.inputOnly {
			step := ts.bufShape(netLayer, slotGradStep, t, g.Shape)
			copy(step.Data, g.Data)
			ts.gradSteps[t] = step
		}
	}
	if !ts.inputOnly {
		return nil
	}
	sum := ts.bufShape(netLayer, slotGradSum, -1, ts.gradSteps[0].Shape)
	sum.Zero()
	for _, step := range ts.gradSteps {
		sum.Add(step)
	}
	return sum
}

// TrainStepScratch runs one batched training minibatch against the
// arena — frame stacking, training-mode forward, softmax cross-entropy,
// BPTT gradient accumulation — and returns the summed loss. Gradients
// accumulate into the network's gradient tensors exactly like the
// allocating trainStep (the caller zeroes and consumes them); in the
// steady state the whole step performs zero tensor allocations.
func (n *Network) TrainStepScratch(samples [][]*tensor.Tensor, labels []int, ts *TrainScratch) float64 {
	ts.inputOnly = false
	frames := ts.StackFramesInto(samples)
	logits := n.forwardTrainScratch(frames, ts)
	grad := ts.bufShape(netLayer, slotLossGrad, -1, logits.Shape)
	loss := SoftmaxCrossEntropyBatchInto(logits, labels, grad)
	n.backwardTrainScratch(grad, ts)
	return loss
}

// InputGradSumScratch computes Σ_t dL/dframe_t for a batch in one
// arena-backed input-only BPTT pass — the attack-crafting hot path.
// frames[t] is (B, sample shape...), labels[b] the loss label of
// sample b. The returned (B, sample shape...) tensor lives in the arena
// and is valid until its next pass. The pass computes no parameter
// gradient: the network's gradient tensors are left exactly as they
// were. Callers run it on a weight-sharing CloneArchitecture clone, so
// dropout stays off and the caller's network keeps clean state.
func (n *Network) InputGradSumScratch(frames []*tensor.Tensor, labels []int, ts *TrainScratch) *tensor.Tensor {
	ts.inputOnly = true
	if cap(ts.gradSteps) < n.Cfg.Steps {
		ts.gradSteps = make([]*tensor.Tensor, n.Cfg.Steps) //axsnn:allow-alloc step ring allocated once per arena
	}
	ts.gradSteps = ts.gradSteps[:n.Cfg.Steps]
	logits := n.forwardTrainScratch(frames, ts)
	grad := ts.bufShape(netLayer, slotLossGrad, -1, logits.Shape)
	SoftmaxCrossEntropyBatchInto(logits, labels, grad)
	return n.backwardTrainScratch(grad, ts)
}

// InputGradSteps returns the per-step input gradients dL/dframe_t of
// the arena's last InputGradSumScratch pass, t = 0..Steps-1, each
// (B, sample shape...): the terms that pass summed. The slice and its
// tensors live in the arena and are valid until its next pass.
func (ts *TrainScratch) InputGradSteps() []*tensor.Tensor { return ts.gradSteps }
