// Package snn implements the spiking-neural-network substrate: leaky
// integrate-and-fire (LIF) dynamics, convolutional / dense / pooling /
// dropout layers, a network container, and surrogate-gradient
// backpropagation-through-time training.
//
// Execution model: a network processes a batch of samples as T time
// steps; tensors carry the batch on the leading axis, so a lone sample
// is a batch of one. Each layer's ForwardBatch is called once per step
// in layer order and caches what its backward pass needs; BackwardBatch
// is then called T times in *reverse* step order, popping those caches.
// Between batches Reset clears all state. This mirrors how mainstream
// SNN frameworks (SpikingJelly, Norse) unroll BPTT, with the standard
// simplifications: the spike nonlinearity uses a fast-sigmoid surrogate
// derivative and the reset path is detached. These allocating methods
// are the test oracle of each layer's arena pair (train_arena.go),
// which every program path runs.
//
// The arena runs the same unrolling. A training step splits its
// minibatch into contiguous sample blocks over the shared worker pool
// (train_block.go): the blocks run the forward, then step by step in
// reverse the blocks run their backward chains and the parameter
// layers reduce that step's weight gradients over the blocks in sample
// order, so the weights match the whole-batch oracle's bit for bit at
// any worker count. A static input (one frame at every step) runs the
// layers before the first LIF once per pass.
package snn

import (
	"fmt"

	"repro/internal/tensor"
)

// Layer is one stage of the unrolled network. The leading axis of the
// tensors passed to ForwardBatch/BackwardBatch is the batch dimension,
// and every sample advances one time step in a single kernel call.
type Layer interface {
	// ForwardBatch advances the layer one time step. train enables
	// behaviours like dropout and backward caching.
	ForwardBatch(x *tensor.Tensor, train bool) *tensor.Tensor
	// BackwardBatch consumes the gradient w.r.t. this step's output and
	// returns the gradient w.r.t. this step's input. Steps must be
	// processed in reverse order of ForwardBatch calls.
	BackwardBatch(grad *tensor.Tensor) *tensor.Tensor
	// Reset clears membrane state and caches between batches.
	Reset()
	// Name identifies the layer type for diagnostics/serialization.
	Name() string
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
// V ← V − Vth·spike. The allocating ForwardBatch/BackwardBatch are
// scalar Go loops; the arena pair runs tensor.LIFStepInto and
// tensor.LIFGradInto, which compute the same values bit for bit, so the
// arena-vs-oracle suites check those kernels against an independent
// loop. Every product is rounded to float32 before its add, so no
// architecture fuses them.
type LIF struct {
	VTh   float32 // threshold voltage
	Decay float32 // membrane leak λ ∈ (0,1]
	Beta  float32 // surrogate sharpness

	v     *tensor.Tensor   // membrane potential
	preVs []*tensor.Tensor // cached pre-reset potentials (training)
	carry *tensor.Tensor   // dL/dV flowing backwards through time

	// Calibration statistics used by the approximation-level equation
	// (approx package): accumulated over forward steps until ResetStats.
	// Every forward pass counts spikes, steps and units; StatVSum is
	// accumulated only by Calibrate's pass (and the allocating
	// ForwardBatch), so read it, and MeanMembrane, after Calibrate.
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

// ForwardBatch implements Layer: the membrane state takes the batch
// shape and every sample's neurons advance in one pass. Spike and
// membrane statistics are normalized per sample so calibration is
// batch-size invariant.
func (l *LIF) ForwardBatch(x *tensor.Tensor, train bool) *tensor.Tensor {
	batch := x.Shape[0]
	if l.v == nil || !tensor.SameShape(l.v, x) {
		l.v = tensor.New(x.Shape...)
	}
	out := tensor.New(x.Shape...)
	var spikes float64
	var vSum float64
	for i, inp := range x.Data {
		v := float32(l.Decay*l.v.Data[i]) + inp
		vSum += float64(v)
		if v >= l.VTh {
			out.Data[i] = 1
			spikes++
			v -= l.VTh
		}
		l.v.Data[i] = v
	}
	if train {
		// Cache pre-reset potential: reconstruct from post state.
		pre := tensor.New(x.Shape...)
		for i := range pre.Data {
			pre.Data[i] = l.v.Data[i] + float32(out.Data[i]*l.VTh)
		}
		l.preVs = append(l.preVs, pre)
	}
	l.StatSpikes += spikes / float64(batch)
	l.StatVSum += vSum / float64(x.Len())
	l.StatSteps++
	l.StatUnits = x.Len() / batch
	return out
}

// ForwardBatchInto implements trainLayer: the membrane persists in the
// arena (zeroed at pass start) and the spike output overwrites a
// reusable buffer. tensor.LIFStepInto updates the membranes, writes the
// spikes and counts them in one pass, and in passes that run a backward
// also caches the step's pre-reset potentials in that same pass. On
// amd64 it is branch-free SSE whose lanes round exactly as
// ForwardBatch's scalar loop, so the values match it bit for bit.
// StatSpikes, StatSteps and StatUnits take ForwardBatch's values in
// every pass; StatVSum, a serial float64 sum over every membrane, only
// in the calibration pass (the arena's membraneSum switch, which only
// Calibrate sets), and no other pass touches it.
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

// BackwardBatchInto implements trainLayer: BackwardBatch against the
// arena's per-step pre-reset cache. The dL/dV carry updates in place — the
// allocating path's fresh output plus Clone collapse into one buffer,
// with identical values (each element reads the previous step's carry
// before overwriting it). tensor.LIFGradInto computes the surrogate four
// lanes at a time on amd64, rounding each lane as BackwardBatch's loop.
func (l *LIF) BackwardBatchInto(grad *tensor.Tensor, ts *TrainScratch, li, t int, needDX bool) *tensor.Tensor {
	if !needDX {
		return nil
	}
	pre := ts.bufShape(li, slotPre, t, grad.Shape)
	carry, fresh := ts.onceShape(li, slotCarry, grad.Shape)
	tensor.LIFGradInto(carry.Data, grad.Data, pre.Data, l.VTh, l.Beta, l.Decay, fresh)
	return carry
}

// BackwardBatch implements Layer: dL/dI_t = dL/dS_t · σ'(V_t − Vth) +
// λ·carry, elementwise over the batch, with the reset path detached
// (standard SNN BPTT practice).
func (l *LIF) BackwardBatch(grad *tensor.Tensor) *tensor.Tensor {
	n := len(l.preVs)
	if n == 0 {
		panic("snn: LIF.BackwardBatch without cached forward step")
	}
	pre := l.preVs[n-1]
	l.preVs = l.preVs[:n-1]

	out := tensor.New(grad.Shape...)
	hasCarry := l.carry != nil
	for i, g := range grad.Data {
		u := pre.Data[i] - l.VTh
		if u < 0 {
			u = -u
		}
		d := 1 + float32(l.Beta*u)
		surr := l.Beta / (d * d)
		dv := float32(g * surr)
		if hasCarry {
			dv += float32(l.Decay * l.carry.Data[i])
		}
		out.Data[i] = dv
	}
	l.carry = out.Clone()
	return out
}

// Reset implements Layer.
func (l *LIF) Reset() {
	l.v = nil
	l.carry = nil
	l.preVs = l.preVs[:0]
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
}

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// ForwardBatch implements Layer: (B, d...) reshapes to (B, Πd).
func (f *Flatten) ForwardBatch(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], x.Shape...) //axsnn:allow-alloc grows to the input rank once, then reuses the backing array
	return x.Reshape(x.Shape[0], x.Len()/x.Shape[0])
}

// ForwardBatchInto implements trainLayer: the flattened result is a
// cached header view over the input data — no copy, no allocation.
// Passes that run a backward record the input shape for it.
func (f *Flatten) ForwardBatchInto(x *tensor.Tensor, ts *TrainScratch, li, t int) *tensor.Tensor {
	if ts.pass != passInfer {
		f.inShape = append(f.inShape[:0], x.Shape...) //axsnn:allow-alloc grows to the input rank once, then reuses the backing array
	}
	return ts.view2(li, slotOutView, x.Data, x.Shape[0], x.Len()/x.Shape[0])
}

// BackwardBatchInto implements trainLayer: the gradient viewed in the
// recorded input shape — no copy, no allocation.
func (f *Flatten) BackwardBatchInto(grad *tensor.Tensor, ts *TrainScratch, li, t int, needDX bool) *tensor.Tensor {
	if !needDX {
		return nil
	}
	return ts.viewShape(li, slotGradView, grad.Data, f.inShape)
}

// BackwardBatch implements Layer.
func (f *Flatten) BackwardBatch(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(f.inShape...)
}

// Reset implements Layer.
func (f *Flatten) Reset() {}

// shapeStr renders a shape for cold panic messages.
//
//axsnn:allow-alloc cold error-path formatting, runs only on misuse
func shapeStr(s []int) string { return fmt.Sprint(s) }
