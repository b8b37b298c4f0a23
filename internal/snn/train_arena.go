package snn

import (
	"fmt"

	"repro/internal/tensor"
)

// The arena. Every pass over a network draws its working memory from a
// TrainScratch, which owns the buffers keyed by (layer, slot, time
// step), so a steady-state pass allocates no tensors once shapes have
// been seen. Each layer has one arena forward, ForwardBatchInto, and one
// arena backward, BackwardBatchInto; the entry point sets the pass kind,
// and the pass kind decides what the forward caches:
//
//   - train (TrainStepScratch) is full BPTT: it accumulates every
//     parameter gradient, so Conv2D and Dense cache each step's input
//     for the weight gradient, LIF its pre-reset potentials, and dropout
//     draws its masks. It runs on sample blocks (train_block.go), each
//     block's pass on its own arena; the parameter layers leave each
//     step's weight and bias gradients to a reduction over the blocks.
//   - input-gradient (InputGradSumScratch) is the attacks' pass: it
//     computes only dL/dx, so it caches only what that reads (LIF
//     pre-reset potentials, pool dims).
//   - inference (Predict, PredictBatchInto) caches nothing and runs no
//     backward: dropout is the identity, and at the INT8 tier Conv2D
//     and Dense run the int8 kernels, here and only here. Calibrate's
//     inference pass alone also sums the LIF membranes (membraneSum).
//
// Every FP32 conv forward is the event-driven scatter
// (tensor.ConvScatterInto).
//
// A pass whose samples all present one input tensor at every step
// runs the leading step-invariant layers (Conv2D, Dense, AvgPool,
// Flatten, up to the first LIF or Dropout) only at step 0 and feeds
// their output to the later steps; a training pass caches their inputs
// at step 0 alone, and the backward and the reduction read them there
// (cachedInput).
//
// Layout: per-step caches (what the reverse pass pops) are a ring of
// Cfg.Steps buffers per (layer, slot), addressed by folding the step
// into the slot space; per-layer transients (outputs, gradient buffers,
// the stacked input frame) and once-per-pass panels (effective weights,
// dropout masks) reuse a single buffer. Because the caches are indexed
// by step rather than pushed on stacks, the backward pass can also skip
// work: layers at or below the lowest parameter layer never compute
// input gradients unless the caller asked for them (attacks do, Train
// does not). No backward reads a stacked input frame, so every pass
// stacks step t's frames into one reused buffer as it reaches step t.
//
// Lifecycle: Network.AcquireTrainScratch hands out an arena (recycled
// from a per-network free list) that also caches the network's
// parameter and gradient tensor lists; Network.ReleaseTrain returns it.
// snn.Train/TrainFrames acquire one per fit, the gradient attacks one
// per crafting call, and Predict/PredictBatchInto and Calibrate one per
// call, so callers keep their one-line APIs. The first TrainStepScratch
// on an arena builds its training fan-out: one weight-sharing clone and
// arena per sample block (as many as the worker budget has asked for),
// the reduction panels and the fan-out bodies. The arena owns them and
// they park with it, so later fits on the network reuse them. A
// TrainScratch belongs to one network and must not be shared between
// goroutines; concurrent work runs on CloneArchitecture clones, each
// with its own arenas.
//
// Correctness: every term a pass adds, it adds in a fixed order, so
// logits, losses, input gradients and trained weights are the same bit
// for bit at any worker count, and the tests pin them to a plain-loop
// reference (reference_test.go) under ==. A sample's forward and
// reverse chain do not depend on the batch it runs in, so splitting a
// minibatch into blocks changes none of their values; the only sums
// across samples, each step's dW and dB, are reduced over the blocks in
// sample order, steps folding in descending order, and the loss sums
// over the assembled logits. Running the step-invariant prefix once per
// pass computes the values running it every step does. The conv scatter
// adds each output's nonzero terms in ascending receptive-field
// position, and the input-driven conv weight gradient reaches each
// tap's outputs in ascending (sample, position) order; package tensor's
// tests pin both to GEMMs over im2row and im2col lowerings
// (tensor.TestConvScatterMatchesGEMM,
// TestConvWeightGradScatterMatchesGEMM). The LIF kernels
// (tensor.LIFStepInto, LIFGradInto) replace the scalar loops' branches
// with lane masks: each lane performs the scalar loop's IEEE operations
// in the same order, and a lane that does not spike subtracts +0, which
// leaves every value as the branch did (tensor.TestLIFStepMatchesGo,
// TestLIFGradMatchesGo).

// trainSlotStride folds the time step into the slot space: per-step
// slot s at step t lives at s + trainSlotStride·(t+1), per-pass slots
// at s itself. The slot enumeration in arena.go must stay below it.
const trainSlotStride = 32

var _ [trainSlotStride - slotCount]struct{} // slots must fit the stride

// tslot maps (slot, step) to the folded slot index; t = -1 addresses
// the per-pass/per-layer instance.
func tslot(slot, t int) int { return slot + trainSlotStride*(t+1) }

// passKind is what an arena pass computes; the entry point sets it.
type passKind int

const (
	// passTrain is TrainStepScratch's BPTT: it caches what the parameter
	// and input gradients read, and dropout draws masks.
	passTrain passKind = iota
	// passInputGrad is InputGradSumScratch's pass: it caches only what
	// dL/dx reads and computes no parameter gradient.
	passInputGrad
	// passInfer is Predict/PredictBatchInto's forward: it caches
	// nothing, dropout is the identity, and the precision tier picks
	// the Conv2D and Dense kernels.
	passInfer
)

// TrainScratch is a per-network arena of reusable buffers: the one
// arena the training, input-gradient and inference passes all run on.
type TrainScratch struct {
	sc Scratch

	// params/grads are the network's parameter and gradient tensors,
	// cached so the train loop (gradient clipping, optimizer steps,
	// zeroing) never rebuilds the slices.
	params, grads []*tensor.Tensor

	// intm holds reusable int scratch (pool dims, GEMM nonzero-index
	// buffers) and i32m the int8 conv accumulators, keyed like the
	// tensor buffers.
	intm map[slotKey][]int
	i32m map[slotKey][]int32

	// pass is the kind of the running pass.
	pass passKind

	// membraneSum makes the LIF layers accumulate StatVSum, a serial
	// float64 sum no other pass needs. Only Calibrate sets it, and
	// ReleaseTrain clears it.
	membraneSum bool

	// gradSteps holds the per-step input gradients of the last
	// input-gradient pass, in forward order (see InputGradSteps).
	gradSteps []*tensor.Tensor

	// static is the number of leading layers the running pass runs only
	// at step 0, because every sample's input is the same at every step
	// (see forwardPass); 0 when some sample's input changes.
	static int

	// offset is the position of a training block's first sample in the
	// caller's minibatch (0 on any other arena): dropout skips the
	// draws of the samples before it.
	offset int

	// stepGrads holds, per (layer, step parity), what a training
	// block's parameter layers leave for the weight-gradient reduction
	// (train_block.go).
	stepGrads []stepGrad

	// fan is the training pass's fan-out over sample blocks, built by
	// the first TrainStepScratch on this arena and kept with it.
	fan *blockFan
}

// Buffer accessors: thin wrappers folding the step into the Scratch
// machinery (sizing, shape reuse, state zeroing, generations).

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
	return sizedSlice(ts.intm, slotKey{li, tslot(slot, t)}, n)
}

// int32s is ints for int32 scratch.
func (ts *TrainScratch) int32s(li, slot, t, n int) []int32 {
	return sizedSlice(ts.i32m, slotKey{li, tslot(slot, t)}, n)
}

// sizedSlice returns m[k] resliced to n, growing it only when n exceeds
// its capacity.
func sizedSlice[E any](m map[slotKey][]E, k slotKey, n int) []E {
	b := m[k]
	if cap(b) < n {
		b = make([]E, n) //axsnn:allow-alloc grows only when the slot length increases
		m[k] = b
	}
	return b[:n]
}

// Params returns the network's parameter tensors (cached at acquire).
func (ts *TrainScratch) Params() []*tensor.Tensor { return ts.params }

// Grads returns the gradient tensors aligned with Params.
func (ts *TrainScratch) Grads() []*tensor.Tensor { return ts.grads }

// stepGrad is layer li's reduction record for step t; steps t and t−1
// have their own.
func (ts *TrainScratch) stepGrad(li, t int) *stepGrad { return &ts.stepGrads[2*li+t&1] }

// cachedInput is the input layer li's training forward cached for step
// t, at step 0 for a layer the pass ran only at step 0. It only reads
// the entry, whose shape the forward set: a static prefix's entry is
// read by the reduction of step t+1 while the chain of step t looks it
// up.
func (ts *TrainScratch) cachedInput(li, t int) *tensor.Tensor {
	if li < ts.static {
		t = 0
	}
	return ts.sc.m[slotKey{li, tslot(slotXCache, t)}].t
}

// ZeroGrads clears every gradient tensor without rebuilding the slice.
func (ts *TrainScratch) ZeroGrads() {
	for _, g := range ts.grads {
		g.Zero()
	}
}

// staticPrefix is the number of leading layers whose output depends
// only on the step's input: Conv2D, Dense, AvgPool and Flatten, up to
// the first LIF or Dropout.
func (n *Network) staticPrefix() int {
	for i, l := range n.Layers {
		switch l.(type) {
		case *Conv2D, *Dense, *AvgPool, *Flatten:
		default:
			return i
		}
	}
	return len(n.Layers)
}

// paramFloor is the index of the lowest parameter layer: a training
// pass needs no input gradient at or below it.
func (n *Network) paramFloor() int {
	for i, l := range n.Layers {
		if _, ok := l.(ParamLayer); ok {
			return i
		}
	}
	return len(n.Layers)
}

// AcquireTrainScratch returns an arena for this network, recycled from
// the network's free list when one is parked there. Pair with
// ReleaseTrain. Not safe for concurrent use — concurrent work runs on
// clones, each owning its arenas. The arena caches the network's
// Params/Grads lists, so acquire a fresh one after structural surgery
// that replaces parameter tensors.
func (n *Network) AcquireTrainScratch() *TrainScratch {
	if k := len(n.trainFree); k > 0 {
		ts := n.trainFree[k-1]
		n.trainFree = n.trainFree[:k-1]
		return ts
	}
	return newTrainScratch(n)
}

// newTrainScratch builds an empty arena for n.
//
//axsnn:allow-alloc builds an arena once; recycled via the free list thereafter
func newTrainScratch(n *Network) *TrainScratch {
	return &TrainScratch{
		sc:        Scratch{m: make(map[slotKey]*scratchEntry)},
		params:    n.Params(),
		grads:     n.Grads(),
		intm:      make(map[slotKey][]int),
		i32m:      make(map[slotKey][]int32),
		stepGrads: make([]stepGrad, 2*len(n.Layers)),
	}
}

// ReleaseTrain parks an arena for reuse by the next AcquireTrainScratch,
// dropping any borrowed data references, its training blocks' too.
func (n *Network) ReleaseTrain(ts *TrainScratch) {
	if ts == nil {
		return
	}
	ts.sc.release()
	if ts.fan != nil {
		for _, bk := range ts.fan.blocks {
			bk.ts.sc.release()
		}
	}
	ts.membraneSum = false
	n.trainFree = append(n.trainFree, ts) //axsnn:allow-alloc free list grows to the high-water mark of live arenas
}

// checkSamples panics unless every sample has input frames of one size
// at each of the steps a pass reads.
func checkSamples(samples [][]*tensor.Tensor, steps int) {
	if len(samples) == 0 {
		panic("snn: arena pass with no samples")
	}
	per := -1
	for b, fr := range samples {
		if len(fr) == 0 {
			panic("snn: arena pass sample with no input frames")
		}
		if per < 0 {
			per = fr[0].Len()
		}
		for _, f := range fr[:min(len(fr), steps)] {
			if f.Len() != per {
				panic(fmt.Sprintf("snn: sample %d frame size %d, want %d", b, f.Len(), per)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
			}
		}
	}
}

// staticInput reports whether every sample presents one tensor at every
// step: a single frame, or the same *tensor.Tensor at each step read.
func staticInput(samples [][]*tensor.Tensor, steps int) bool {
	for _, fr := range samples {
		for _, f := range fr[1:min(len(fr), steps)] {
			if f != fr[0] {
				return false
			}
		}
	}
	return true
}

// forwardPass runs one forward pass of the given kind over a batch of
// per-sample frame lists and returns the accumulated (B, classes)
// logits, which live in the arena and are valid until its next pass.
// At step t every sample contributes frame t, or its last frame once it
// has no more (a single frame is a static image presented every step),
// stacked into one reused (B, frame shape...) buffer.
//
// When every sample's input is static, the layers before the first
// stateful one (Conv2D, Dense, AvgPool and Flatten compute each step
// from that step's input alone) would compute the same output at every
// step, so they run only at step 0 and later steps start from their
// step-0 output. The values are those of running them every step; a
// training pass caches their inputs once, at step 0 (cachedInput).
func (n *Network) forwardPass(samples [][]*tensor.Tensor, ts *TrainScratch, pass passKind) *tensor.Tensor {
	checkSamples(samples, n.Cfg.Steps)
	ts.pass = pass
	ts.sc.begin()
	ts.static = 0
	if staticInput(samples, n.Cfg.Steps) {
		ts.static = n.staticPrefix()
	}
	batch := len(samples)
	shape := samples[0][0].Shape
	per := samples[0][0].Len()
	var logits, fixed *tensor.Tensor
	for t := 0; t < n.Cfg.Steps; t++ {
		first, x := 0, fixed
		if t > 0 {
			first = ts.static
		}
		if first == 0 {
			x = ts.sc.sized(netLayer, tslot(slotFrame, -1), batch*per).t
			if len(x.Shape) != 1+len(shape) {
				x.Shape = make([]int, 1+len(shape)) //axsnn:allow-alloc rank changes at most once per slot
			}
			x.Shape[0] = batch
			copy(x.Shape[1:], shape)
			for b, fr := range samples {
				copy(x.Data[b*per:(b+1)*per], fr[min(t, len(fr)-1)].Data)
			}
		}
		for li := first; li < len(n.Layers); li++ {
			x = n.Layers[li].ForwardBatchInto(x, ts, li, t)
			if li+1 == ts.static {
				fixed = x
			}
		}
		if logits == nil {
			logits = ts.sc.bufShape(netLayer, slotLogits, x.Shape)
			logits.Zero()
		}
		logits.Add(x)
	}
	return logits
}

// backwardStep runs step t's reverse chain after a train or
// input-gradient forwardPass, from the top gradient g down to the
// lowest layer whose input gradient is needed, and returns dL/dx_t. A
// training pass needs none below the lowest parameter layer, so it
// returns nil; its parameter layers leave their step gradients in
// stepGrads for the reduction instead of accumulating them.
func (n *Network) backwardStep(g *tensor.Tensor, ts *TrainScratch, t int) *tensor.Tensor {
	inputGrad, floor := ts.pass == passInputGrad, n.paramFloor()
	for li := len(n.Layers) - 1; li >= 0 && g != nil; li-- {
		g = n.Layers[li].BackwardBatchInto(g, ts, li, t, inputGrad || li > floor)
	}
	return g
}

// InputGradSumScratch computes Σ_t dL/dframe_t for a batch in one
// arena-backed input-gradient BPTT pass — the attack-crafting hot path.
// samples[b] is sample b's frame list and labels[b] its loss label, as
// for TrainStepScratch. The returned (B, frame shape...) tensor lives
// in the arena and is valid until its next pass. The pass computes no
// parameter gradient: the network's gradient tensors are left exactly
// as they were. Callers run it on a weight-sharing CloneArchitecture
// clone, so dropout stays off and the caller's network keeps clean
// state. It runs FP32 at any precision tier. The per-step terms stay
// in the arena (InputGradSteps) and are summed in ascending step
// order, as encoding.SumFrameGradients folds a per-step list.
func (n *Network) InputGradSumScratch(samples [][]*tensor.Tensor, labels []int, ts *TrainScratch) *tensor.Tensor {
	if cap(ts.gradSteps) < n.Cfg.Steps {
		ts.gradSteps = make([]*tensor.Tensor, n.Cfg.Steps) //axsnn:allow-alloc step ring allocated once per arena
	}
	ts.gradSteps = ts.gradSteps[:n.Cfg.Steps]
	logits := n.forwardPass(samples, ts, passInputGrad)
	grad := ts.bufShape(netLayer, slotLossGrad, -1, logits.Shape)
	SoftmaxCrossEntropyBatchInto(logits, labels, grad)
	for t := n.Cfg.Steps - 1; t >= 0; t-- {
		g := n.backwardStep(grad, ts, t)
		step := ts.bufShape(netLayer, slotGradStep, t, g.Shape)
		copy(step.Data, g.Data)
		ts.gradSteps[t] = step
	}
	sum := ts.bufShape(netLayer, slotGradSum, -1, ts.gradSteps[0].Shape)
	sum.Zero()
	for _, step := range ts.gradSteps {
		sum.Add(step)
	}
	return sum
}

// InputGradSteps returns the per-step input gradients dL/dframe_t of
// the arena's last InputGradSumScratch pass, t = 0..Steps-1, each
// (B, frame shape...): the terms that pass summed. The slice and its
// tensors live in the arena and are valid until its next pass.
func (ts *TrainScratch) InputGradSteps() []*tensor.Tensor { return ts.gradSteps }
