package snn

import (
	"math"

	"repro/internal/tensor"
)

// SoftmaxCrossEntropyBatchInto is softmax cross-entropy over a batch:
// logits is (B, classes), labels[b] the target of sample b. It returns
// the summed loss and writes the per-sample gradient rows dL/dlogits
// into the caller-owned (B, classes) tensor grad, which must not alias
// logits. Each row's exponentials accumulate in float64 from the row's
// maximum and normalize once in float32.
func SoftmaxCrossEntropyBatchInto(logits *tensor.Tensor, labels []int, grad *tensor.Tensor) float64 {
	if logits.Rank() != 2 || logits.Shape[0] != len(labels) {
		panic("snn: SoftmaxCrossEntropyBatchInto logits/labels mismatch")
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
