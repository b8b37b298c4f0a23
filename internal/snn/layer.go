// Package snn implements the spiking-neural-network substrate: leaky
// integrate-and-fire (LIF) dynamics, convolutional / dense / pooling /
// dropout layers, a network container, and surrogate-gradient
// backpropagation-through-time training.
//
// Execution model: a network processes a batch of samples as T time
// steps; tensors carry the batch on the leading axis, so a lone sample
// is a batch of one. Every pass runs on an arena (train_arena.go): each
// layer's ForwardBatchInto is called once per step in layer order and
// caches in the arena what the pass's backward reads; its
// BackwardBatchInto is then called T times in *reverse* step order.
// This mirrors how mainstream SNN frameworks (SpikingJelly, Norse)
// unroll BPTT, with the standard simplifications: the spike
// nonlinearity uses a fast-sigmoid surrogate derivative and the reset
// path is detached. The tests check every pass against a plain-loop
// reference (reference_test.go) under ==.
//
// A training step splits its minibatch into contiguous sample blocks
// over the shared worker pool (train_block.go): the blocks run the
// forward, then step by step in reverse the blocks run their backward
// chains and the parameter layers reduce that step's weight gradients
// over the blocks in sample order, so the weights are the same bit for
// bit at any worker count. A static input (one frame at every step)
// runs the layers before the first LIF once per pass.
package snn

import (
	"fmt"

	"repro/internal/tensor"
)

// Layer is one stage of the unrolled network: its one batched arena
// forward and backward, which draw all working memory from the arena.
// The leading axis of every tensor is the batch, and every sample
// advances one time step per call. li is the layer's position, t the
// time step (forward ascending, backward descending), and ts.pass says
// what the forward caches. BackwardBatchInto may return nil when
// needDX is false: the caller does not need the input gradient, so
// layers with no parameter layer below them skip that work entirely.
type Layer interface {
	ForwardBatchInto(x *tensor.Tensor, ts *TrainScratch, li, t int) *tensor.Tensor
	BackwardBatchInto(grad *tensor.Tensor, ts *TrainScratch, li, t int, needDX bool) *tensor.Tensor
	// ForwardBatch and Reset adapt ForwardBatchInto to callers that
	// step one layer at a time: ForwardBatch runs one inference step
	// on the layer's own arena (see adapter), and Reset begins a new
	// pass there. train must be false.
	ForwardBatch(x *tensor.Tensor, train bool) *tensor.Tensor
	Reset()
	// Name identifies the layer type for diagnostics/serialization.
	Name() string
}

// adapter is a layer's own one-layer arena, on which its ForwardBatch
// runs ForwardBatchInto as an inference pass at layer index 0 and step
// 0. The arena's LIF membranes persist from call to call until Reset.
type adapter struct{ ts *TrainScratch }

// forward runs one inference step of l on the adapter's arena.
func (a *adapter) forward(l Layer, x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		panic("snn: ForwardBatch runs inference only")
	}
	if a.ts == nil {
		a.ts = newAdapterScratch()
	}
	return l.ForwardBatchInto(x, a.ts, 0, 0)
}

// Reset implements Layer: the next ForwardBatch begins a new pass, with
// the membranes at zero and the weight panels rebuilt.
func (a *adapter) Reset() {
	if a.ts != nil {
		a.ts.sc.begin()
	}
}

// newAdapterScratch builds an adapter's arena, with its first pass
// begun.
//
//axsnn:allow-alloc builds a layer's adapter arena once; reused until the layer is dropped
func newAdapterScratch() *TrainScratch {
	ts := newTrainScratch(&Network{})
	ts.pass = passInfer
	ts.sc.begin()
	return ts
}

// ParamLayer is a Layer with trainable parameters.
type ParamLayer interface {
	Layer
	Params() []*tensor.Tensor
	Grads() []*tensor.Tensor
}

// BatchLayer is an alias of Layer, whose methods are all batched; it
// stays for callers that name it.
type BatchLayer = Layer

// LIF is a layer of leaky integrate-and-fire neurons applied elementwise
// to its input current: V ← λV + I; spike where V ≥ Vth; soft reset
// V ← V − Vth·spike. The arena pair runs tensor.LIFStepInto and
// tensor.LIFGradInto, which package tensor pins to its portable Go
// loops and the tests' reference pins to its own loop. Every product is
// rounded to float32 before its add, so no architecture fuses them.
type LIF struct {
	VTh   float32 // threshold voltage
	Decay float32 // membrane leak λ ∈ (0,1]
	Beta  float32 // surrogate sharpness

	adapter // ForwardBatch's arena

	// Calibration statistics used by the approximation-level equation
	// (approx package): accumulated over forward steps until ResetStats.
	// Every forward pass counts spikes, steps and units; StatVSum is
	// accumulated only by Calibrate's pass, so read it, and
	// MeanMembrane, after Calibrate.
	StatSpikes float64 // total output spikes
	StatVSum   float64 // sum of mean pre-reset membrane potential per step (Calibrate only)
	StatSteps  int     // forward steps counted
	StatUnits  int     // neurons per step (set on first forward)
}

// NewLIF returns a LIF activation with threshold vth, leak decay and
// surrogate sharpness beta.
func NewLIF(vth, decay, beta float32) *LIF {
	return &LIF{VTh: vth, Decay: decay, Beta: beta}
}

// Name implements Layer.
func (l *LIF) Name() string { return "lif" }

// ForwardBatch implements Layer (see adapter).
func (l *LIF) ForwardBatch(x *tensor.Tensor, train bool) *tensor.Tensor {
	return l.forward(l, x, train)
}

// ForwardBatchInto implements Layer: the membrane state takes the batch
// shape, persists in the arena (zeroed at pass start) and every
// sample's neurons advance in one pass; the spike output overwrites a
// reusable buffer. tensor.LIFStepInto updates the membranes, writes the
// spikes and counts them in one pass, and in passes that run a backward
// also caches the step's pre-reset potentials in that same pass.
// StatSpikes, StatSteps and StatUnits count every pass, normalized per
// sample so calibration is batch-size invariant; StatVSum, a serial
// float64 sum over every membrane, only the calibration pass (the
// arena's membraneSum switch, which only Calibrate sets), and no other
// pass touches it.
func (l *LIF) ForwardBatchInto(x *tensor.Tensor, ts *TrainScratch, li, t int) *tensor.Tensor {
	batch := x.Shape[0]
	v := ts.stateBufShape(li, slotState, x.Shape)
	out := ts.bufShape(li, slotOut, -1, x.Shape)
	decay, vth := l.Decay, l.VTh
	if ts.membraneSum {
		var vSum float64
		for i, inp := range x.Data {
			vSum += float64(float32(decay*v.Data[i]) + inp)
		}
		l.StatVSum += vSum / float64(x.Len())
	}
	var pre []float32
	if ts.pass != passInfer {
		pre = ts.bufShape(li, slotPre, t, x.Shape).Data
	}
	spikes := tensor.LIFStepInto(v.Data, x.Data, out.Data, pre, decay, vth)
	l.StatSpikes += float64(spikes) / float64(batch)
	l.StatSteps++
	l.StatUnits = x.Len() / batch
	return out
}

// BackwardBatchInto implements Layer: dL/dI_t = dL/dS_t · σ'(V_t − Vth)
// + λ·carry, elementwise over the batch, against the arena's per-step
// pre-reset cache, with the reset path detached (standard SNN BPTT
// practice). The dL/dV carry updates in place: each element reads the
// previous step's carry before overwriting it. tensor.LIFGradInto
// computes the surrogate four lanes at a time on amd64.
func (l *LIF) BackwardBatchInto(grad *tensor.Tensor, ts *TrainScratch, li, t int, needDX bool) *tensor.Tensor {
	if !needDX {
		return nil
	}
	pre := ts.bufShape(li, slotPre, t, grad.Shape)
	carry, fresh := ts.onceShape(li, slotCarry, grad.Shape)
	tensor.LIFGradInto(carry.Data, grad.Data, pre.Data, l.VTh, l.Beta, l.Decay, fresh)
	return carry
}

// ResetStats clears the calibration counters.
func (l *LIF) ResetStats() {
	l.StatSpikes, l.StatVSum, l.StatSteps, l.StatUnits = 0, 0, 0, 0
}

// MeanSpikesPerStep returns average spikes emitted per time step.
func (l *LIF) MeanSpikesPerStep() float64 {
	if l.StatSteps == 0 {
		return 0
	}
	return l.StatSpikes / float64(l.StatSteps)
}

// MeanMembrane returns the average pre-reset membrane potential per
// step, which only Calibrate's pass accumulates: after any other pass it
// reads whatever the last calibration left.
func (l *LIF) MeanMembrane() float64 {
	if l.StatSteps == 0 {
		return 0
	}
	return l.StatVSum / float64(l.StatSteps)
}

// Flatten reshapes each sample of a (B, C,H,W) batch to a vector.
type Flatten struct {
	inShape []int
	adapter // ForwardBatch's arena
}

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// ForwardBatch implements Layer (see adapter).
func (f *Flatten) ForwardBatch(x *tensor.Tensor, train bool) *tensor.Tensor {
	return f.forward(f, x, train)
}

// ForwardBatchInto implements Layer: (B, d...) reshapes to (B, Πd), a
// cached header view over the input data — no copy, no allocation.
// Passes that run a backward record the input shape for it.
func (f *Flatten) ForwardBatchInto(x *tensor.Tensor, ts *TrainScratch, li, t int) *tensor.Tensor {
	if ts.pass != passInfer {
		f.inShape = append(f.inShape[:0], x.Shape...) //axsnn:allow-alloc grows to the input rank once, then reuses the backing array
	}
	return ts.view2(li, slotOutView, x.Data, x.Shape[0], x.Len()/x.Shape[0])
}

// BackwardBatchInto implements Layer: the gradient viewed in the
// recorded input shape — no copy, no allocation.
func (f *Flatten) BackwardBatchInto(grad *tensor.Tensor, ts *TrainScratch, li, t int, needDX bool) *tensor.Tensor {
	if !needDX {
		return nil
	}
	return ts.viewShape(li, slotGradView, grad.Data, f.inShape)
}

// shapeStr renders a shape for cold panic messages.
//
//axsnn:allow-alloc cold error-path formatting, runs only on misuse
func shapeStr(s []int) string { return fmt.Sprint(s) }
