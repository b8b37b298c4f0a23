package snn

import (
	"fmt"

	"repro/internal/tensor"
)

// Batched inference entry points. Tensors carry the batch on the
// leading axis — frames are (B,C,H,W), dense activations (B,F), logits
// (B,classes) — and a lone sample is a batch of one. Every kernel keeps
// each sample's accumulation order, so a sample's logits and input
// gradients do not depend on the batch it runs in.

// ForwardSamples runs the arena's inference pass over per-sample frame
// lists, at the network's precision tier, and returns a copy of the
// (B, classes) logits.
func (n *Network) ForwardSamples(samples [][]*tensor.Tensor) *tensor.Tensor {
	ts := n.AcquireTrainScratch()
	defer n.ReleaseTrain(ts)
	return n.forwardPass(samples, ts, passInfer).Clone()
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
