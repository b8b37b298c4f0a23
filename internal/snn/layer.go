// Package snn implements the spiking-neural-network substrate: leaky
// integrate-and-fire (LIF) dynamics, convolutional / dense / pooling /
// dropout layers, a network container, and surrogate-gradient
// backpropagation-through-time training.
//
// Execution model: a network processes one sample as T time steps. Each
// layer's Forward is called once per step in layer order and caches what
// its backward pass needs; Backward is then called T times in *reverse*
// step order, popping those caches. Between samples Reset clears all
// state. This mirrors how mainstream SNN frameworks (SpikingJelly, Norse)
// unroll BPTT, with the standard simplifications: the spike nonlinearity
// uses a fast-sigmoid surrogate derivative and the reset path is detached.
package snn

import (
	"fmt"

	"repro/internal/tensor"
)

// Layer is one stage of the unrolled network.
type Layer interface {
	// Forward advances the layer one time step. train enables
	// behaviours like dropout and backward caching.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes the gradient w.r.t. this step's output and
	// returns the gradient w.r.t. this step's input. Steps must be
	// processed in reverse order of Forward calls.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Reset clears membrane state and caches between samples.
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

// BatchLayer is a Layer that can advance a whole minibatch per call:
// the leading axis of the tensors passed to ForwardBatch/BackwardBatch
// is the batch dimension, and every sample advances one time step in a
// single kernel invocation. All built-in layers implement it; a network
// whose layers all do exposes Network.ForwardBatch/BackwardBatch.
type BatchLayer interface {
	Layer
	ForwardBatch(x *tensor.Tensor, train bool) *tensor.Tensor
	BackwardBatch(grad *tensor.Tensor) *tensor.Tensor
}

// LIF is a layer of leaky integrate-and-fire neurons applied elementwise
// to its input current: V ← λV + I; spike where V ≥ Vth; soft reset
// V ← V − Vth·spike.
type LIF struct {
	VTh   float32 // threshold voltage
	Decay float32 // membrane leak λ ∈ (0,1]
	Beta  float32 // surrogate sharpness

	v     *tensor.Tensor   // membrane potential
	preVs []*tensor.Tensor // cached pre-reset potentials (training)
	carry *tensor.Tensor   // dL/dV flowing backwards through time

	// Calibration statistics used by the approximation-level equation
	// (approx package): accumulated over forward steps until ResetStats.
	StatSpikes float64 // total output spikes
	StatVSum   float64 // sum of mean pre-reset membrane potential per step
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

// Forward implements Layer.
func (l *LIF) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return l.step(x, train, 1)
}

// ForwardBatch implements BatchLayer: the membrane state takes the
// batch shape and every sample's neurons advance in one pass. Spike and
// membrane statistics are normalized per sample so calibration is
// batch-size invariant.
func (l *LIF) ForwardBatch(x *tensor.Tensor, train bool) *tensor.Tensor {
	return l.step(x, train, x.Shape[0])
}

// step advances the LIF dynamics one time step over x holding batch
// samples (batch=1 for the per-sample path).
func (l *LIF) step(x *tensor.Tensor, train bool, batch int) *tensor.Tensor {
	if l.v == nil || !tensor.SameShape(l.v, x) {
		l.v = tensor.New(x.Shape...)
	}
	out := tensor.New(x.Shape...)
	var spikes float64
	var vSum float64
	for i, inp := range x.Data {
		v := l.Decay*l.v.Data[i] + inp
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
			pre.Data[i] = l.v.Data[i] + out.Data[i]*l.VTh
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
// reusable buffer. Passes that run a backward also cache the step's
// pre-reset potentials. Arithmetic and statistics match step exactly,
// so calibration is bit-identical to the allocating path.
func (l *LIF) ForwardBatchInto(x *tensor.Tensor, ts *TrainScratch, li, t int) *tensor.Tensor {
	batch := x.Shape[0]
	v := ts.stateBufShape(li, slotState, x.Shape)
	out := ts.bufShape(li, slotOut, -1, x.Shape)
	var spikes float64
	var vSum float64
	for i, inp := range x.Data {
		vv := l.Decay*v.Data[i] + inp
		vSum += float64(vv)
		var o float32
		if vv >= l.VTh {
			o = 1
			spikes++
			vv -= l.VTh
		}
		out.Data[i] = o
		v.Data[i] = vv
	}
	if ts.pass != passInfer {
		// Cache pre-reset potential: reconstruct from post state, exactly
		// like step does, into this step's ring buffer.
		pre := ts.bufShape(li, slotPre, t, x.Shape)
		for i := range pre.Data {
			pre.Data[i] = v.Data[i] + out.Data[i]*l.VTh
		}
	}
	l.StatSpikes += spikes / float64(batch)
	l.StatVSum += vSum / float64(x.Len())
	l.StatSteps++
	l.StatUnits = x.Len() / batch
	return out
}

// BackwardBatchInto implements trainLayer: Backward against the arena's
// per-step pre-reset cache. The dL/dV carry updates in place — the
// allocating path's fresh output plus Clone collapse into one buffer,
// with identical values (dv reads the previous step's carry element
// before overwriting it).
func (l *LIF) BackwardBatchInto(grad *tensor.Tensor, ts *TrainScratch, li, t int, needDX bool) *tensor.Tensor {
	if !needDX {
		return nil
	}
	pre := ts.bufShape(li, slotPre, t, grad.Shape)
	carry, fresh := ts.onceShape(li, slotCarry, grad.Shape)
	for i, g := range grad.Data {
		u := pre.Data[i] - l.VTh
		if u < 0 {
			u = -u
		}
		d := 1 + l.Beta*u
		surr := l.Beta / (d * d)
		dv := g * surr
		if !fresh {
			dv += l.Decay * carry.Data[i]
		}
		carry.Data[i] = dv
	}
	return carry
}

// BackwardBatch implements BatchLayer: the surrogate gradient is
// elementwise, so the batched pass is the per-sample pass over the
// larger state.
func (l *LIF) BackwardBatch(grad *tensor.Tensor) *tensor.Tensor {
	return l.Backward(grad)
}

// Backward implements Layer: dL/dI_t = dL/dS_t · σ'(V_t − Vth) + λ·carry,
// with the reset path detached (standard SNN BPTT practice).
func (l *LIF) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n := len(l.preVs)
	if n == 0 {
		panic("snn: LIF.Backward without cached forward step")
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
		d := 1 + l.Beta*u
		surr := l.Beta / (d * d)
		dv := g * surr
		if hasCarry {
			dv += l.Decay * l.carry.Data[i]
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

// MeanMembrane returns the average pre-reset membrane potential per step.
func (l *LIF) MeanMembrane() float64 {
	if l.StatSteps == 0 {
		return 0
	}
	return l.StatVSum / float64(l.StatSteps)
}

// Flatten reshapes (C,H,W) inputs to rank-1 vectors.
type Flatten struct {
	inShape []int
}

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], x.Shape...) //axsnn:allow-alloc grows to the input rank once, then reuses the backing array
	return x.Reshape(x.Len())
}

// ForwardBatch implements BatchLayer: (B, d...) reshapes to (B, Πd).
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

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(f.inShape...)
}

// BackwardBatch implements BatchLayer.
func (f *Flatten) BackwardBatch(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(f.inShape...)
}

// Reset implements Layer.
func (f *Flatten) Reset() {}

// shapeStr renders a shape for cold panic messages.
//
//axsnn:allow-alloc cold error-path formatting, runs only on misuse
func shapeStr(s []int) string { return fmt.Sprint(s) }
