package snn

import (
	"fmt"

	"repro/internal/tensor"
)

// The allocating execution path, the arena's test oracle: a whole
// minibatch advances through every layer in one kernel call per step.
// Tensors carry the batch on the leading axis — frames are (B,C,H,W),
// dense activations (B,F), logits (B,classes) — and a lone sample is a
// batch of one. Every kernel keeps each sample's accumulation order, so
// a sample's logits and input gradients do not depend on the batch it
// runs in; only the order in which *gradient sums across samples*
// accumulate does.

// StepForwardBatch runs one batched time step through all layers.
func (n *Network) StepForwardBatch(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range n.Layers {
		x = l.ForwardBatch(x, train)
	}
	return x
}

// StepBackwardBatch runs one reverse batched time step.
func (n *Network) StepBackwardBatch(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].BackwardBatch(grad)
	}
	return grad
}

// ForwardBatch processes a batch of samples: frames[t] is the batched
// input at step t, shape (B, sample shape...); if fewer frames than
// Steps are supplied the last frame repeats. It returns the accumulated
// readout logits, shape (B, classes).
func (n *Network) ForwardBatch(frames []*tensor.Tensor, train bool) *tensor.Tensor {
	if len(frames) == 0 {
		panic("snn: ForwardBatch with no input frames")
	}
	n.Reset()
	var logits *tensor.Tensor
	for t := 0; t < n.Cfg.Steps; t++ {
		f := frames[min(t, len(frames)-1)]
		out := n.StepForwardBatch(f, train)
		if logits == nil {
			logits = tensor.New(out.Shape...)
		}
		logits.Add(out)
	}
	return logits
}

// BackwardBatch completes BPTT after a training ForwardBatch:
// gradLogits is dL/d(accumulated logits), shape (B, classes); since
// logits = Σ_t out_t, every reverse step receives the same top gradient.
// It returns per-step batched input gradients in forward order.
func (n *Network) BackwardBatch(gradLogits *tensor.Tensor) []*tensor.Tensor {
	grads := make([]*tensor.Tensor, n.Cfg.Steps)
	for t := n.Cfg.Steps - 1; t >= 0; t-- {
		grads[t] = n.StepBackwardBatch(gradLogits.Clone())
	}
	return grads
}

// ForwardSamples stacks per-sample frame sequences and runs one batched
// forward, returning (B, classes) logits.
func (n *Network) ForwardSamples(samples [][]*tensor.Tensor, train bool) *tensor.Tensor {
	return n.ForwardBatch(StackFrames(samples, n.Cfg.Steps), train)
}

// PredictBatch returns the argmax class of every sample in one batched
// pass on the arena (see PredictBatchInto); the steady state allocates
// nothing but the result slice.
func (n *Network) PredictBatch(samples [][]*tensor.Tensor) []int {
	if len(samples) == 0 {
		return nil
	}
	out := make([]int, len(samples))
	n.PredictBatchInto(samples, out)
	return out
}

// PredictBatchInto is PredictBatch writing the predicted classes into a
// caller-owned slice (len(out) == len(samples)) — the fully
// allocation-free form of the batched hot path. It runs the arena's
// inference pass, which caches nothing for a backward, at the
// network's precision tier.
func (n *Network) PredictBatchInto(samples [][]*tensor.Tensor, out []int) {
	if len(out) != len(samples) {
		panic(fmt.Sprintf("snn: PredictBatchInto out length %d, want %d", len(out), len(samples))) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
	}
	if len(samples) == 0 {
		return
	}
	ts := n.AcquireTrainScratch()
	defer n.ReleaseTrain(ts)
	logits := n.forwardPass(samples, ts, passInfer)
	classes := logits.Len() / len(samples)
	for b := range out {
		row := logits.Data[b*classes : (b+1)*classes]
		best, bi := row[0], 0
		for j, v := range row {
			if v > best {
				best, bi = v, j
			}
		}
		out[b] = bi
	}
}

// StackFrames assembles per-sample frame sequences into per-step
// batched tensors: out[t] has shape (B, frame shape...). A sample with
// fewer frames than steps contributes its last frame to the remaining
// steps (the same repeat rule as the arena passes); a sample with a
// single frame is a static image presented every step.
func StackFrames(samples [][]*tensor.Tensor, steps int) []*tensor.Tensor {
	if len(samples) == 0 {
		panic("snn: StackFrames with no samples")
	}
	for _, fr := range samples {
		if len(fr) == 0 {
			panic("snn: StackFrames sample with no input frames")
		}
	}
	batch := len(samples)
	shape := samples[0][0].Shape
	per := samples[0][0].Len()
	out := make([]*tensor.Tensor, steps)
	for t := 0; t < steps; t++ {
		f := tensor.New(append([]int{batch}, shape...)...)
		for b, fr := range samples {
			src := fr[min(t, len(fr)-1)]
			if src.Len() != per {
				panic(fmt.Sprintf("snn: StackFrames sample %d frame size %d, want %d", b, src.Len(), per)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
			}
			copy(f.Data[b*per:(b+1)*per], src.Data)
		}
		out[t] = f
	}
	return out
}

// InputGradientBatch computes dL/dframe_t for a batch of samples in one
// allocating batched BPTT pass, accumulating parameter gradients on the
// way. The attacks run the arena's input-gradient pass instead
// (InputGradSumScratch); this form stays as the tests' oracle for it.
// It runs on a weight-sharing evaluation clone, so dropout stays
// disabled and the caller's network keeps clean state. frames[t] is
// (B, sample shape...); labels[b] is the loss label of sample b. The
// returned grads[t] is the batched gradient at step t.
func InputGradientBatch(n *Network, frames []*tensor.Tensor, labels []int) []*tensor.Tensor {
	clone := n.CloneArchitecture()
	logits := clone.ForwardBatch(frames, true)
	_, grad := SoftmaxCrossEntropyBatch(logits, labels)
	return clone.BackwardBatch(grad)
}
