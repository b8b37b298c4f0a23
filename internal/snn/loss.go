package snn

import (
	"math"

	"repro/internal/tensor"
)

// SoftmaxCrossEntropy returns the cross-entropy loss of logits against
// label and the gradient dL/dlogits.
func SoftmaxCrossEntropy(logits *tensor.Tensor, label int) (float64, *tensor.Tensor) {
	p := tensor.Softmax(logits)
	eps := 1e-12
	loss := -math.Log(math.Max(float64(p.Data[label]), eps))
	grad := p.Clone()
	grad.Data[label] -= 1
	return loss, grad
}

// SoftmaxCrossEntropyBatch is the batched form: logits is (B, classes),
// labels[b] the target of sample b. It returns the summed loss and the
// per-sample gradient rows dL/dlogits (each row identical to what
// SoftmaxCrossEntropy would return for that sample alone).
func SoftmaxCrossEntropyBatch(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	if logits.Rank() != 2 || logits.Shape[0] != len(labels) {
		panic("snn: SoftmaxCrossEntropyBatch logits/labels mismatch")
	}
	classes := logits.Shape[1]
	grad := tensor.New(logits.Shape...)
	total := 0.0
	for b, label := range labels {
		row := tensor.FromSlice(logits.Data[b*classes:(b+1)*classes], classes)
		loss, g := SoftmaxCrossEntropy(row, label)
		total += loss
		copy(grad.Data[b*classes:(b+1)*classes], g.Data)
	}
	return total, grad
}

// SoftmaxCrossEntropyBatchInto is SoftmaxCrossEntropyBatch writing the
// gradient into the caller-owned (B, classes) tensor grad (which must
// not alias logits) — the allocation-free form the training arena uses.
// The per-row arithmetic replicates tensor.Softmax and
// SoftmaxCrossEntropy exactly (float64 exponential accumulation, then a
// single float32 normalization), so losses and gradients are
// bit-identical to the allocating path.
func SoftmaxCrossEntropyBatchInto(logits *tensor.Tensor, labels []int, grad *tensor.Tensor) float64 {
	if logits.Rank() != 2 || logits.Shape[0] != len(labels) {
		panic("snn: SoftmaxCrossEntropyBatch logits/labels mismatch")
	}
	if !tensor.SameShape(grad, logits) {
		panic("snn: SoftmaxCrossEntropyBatchInto grad/logits shape mismatch")
	}
	classes := logits.Shape[1]
	eps := 1e-12
	total := 0.0
	for b, label := range labels {
		lrow := logits.Data[b*classes : (b+1)*classes]
		grow := grad.Data[b*classes : (b+1)*classes]
		maxV := float64(math.Inf(-1))
		for _, v := range lrow {
			if float64(v) > maxV {
				maxV = float64(v)
			}
		}
		sum := 0.0
		for i, v := range lrow {
			e := math.Exp(float64(v) - maxV)
			grow[i] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for i := range grow {
			grow[i] *= inv
		}
		total += -math.Log(math.Max(float64(grow[label]), eps))
		grow[label] -= 1
	}
	return total
}
