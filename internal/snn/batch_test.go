package snn

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// randFrames builds per-sample spike-frame sequences for a (C,H,W)
// input at the given spike density.
func randFrames(r *rng.RNG, batch, steps int, density float64, shape ...int) [][]*tensor.Tensor {
	out := make([][]*tensor.Tensor, batch)
	for b := range out {
		fr := make([]*tensor.Tensor, steps)
		for t := range fr {
			f := tensor.New(shape...)
			for i := range f.Data {
				if r.Float64() < density {
					f.Data[i] = 1
				}
			}
			fr[t] = f
		}
		out[b] = fr
	}
	return out
}

// forwardOne runs frames through the arena's inference pass as a batch
// of one and returns its (1, classes) logits.
func forwardOne(n *Network, frames []*tensor.Tensor) *tensor.Tensor {
	return n.ForwardSamples([][]*tensor.Tensor{frames})
}

// backwardBatch runs one arena training step over samples against
// labels, accumulating parameter gradients, then the arena's
// input-gradient pass. It returns the summed loss and copies of the
// per-step (B, frame shape...) input gradients.
func backwardBatch(n *Network, samples [][]*tensor.Tensor, labels []int) (float64, []*tensor.Tensor) {
	ts := n.AcquireTrainScratch()
	defer n.ReleaseTrain(ts)
	loss := n.TrainStepScratch(samples, labels, ts)
	n.InputGradSumScratch(samples, labels, ts)
	var steps []*tensor.Tensor
	for _, g := range ts.InputGradSteps() {
		steps = append(steps, g.Clone())
	}
	return loss, steps
}

// backwardOne is backwardBatch over frames as a batch of one.
func backwardOne(n *Network, frames []*tensor.Tensor, label int) (float64, []*tensor.Tensor) {
	return backwardBatch(n, [][]*tensor.Tensor{frames}, []int{label})
}

// TestForwardBatchMatchesLooped pins the batched-path contract: for any
// batch, the inference pass's logits must match running each sample as
// a batch of one bit for bit (every kernel keeps each sample's
// accumulation order, and both runs take the same kernels).
func TestForwardBatchMatchesLooped(t *testing.T) {
	r := rng.New(41)
	cfg := DefaultConfig(0.6, 5)
	nets := map[string]*Network{
		"mnist": MNISTNet(cfg, 1, 12, 12, true, rng.New(1)),
		"dense": DenseNet(cfg, 144, 32, 10, rng.New(2)),
	}
	shapes := map[string][]int{
		"mnist": {1, 12, 12},
		"dense": {1, 12, 12},
	}
	for name, net := range nets {
		for _, density := range []float64{0, 0.15, 0.8} {
			samples := randFrames(r, 7, cfg.Steps, density, shapes[name]...)
			batched := net.ForwardSamples(samples)
			for b, fr := range samples {
				single := forwardOne(net, fr)
				for j, v := range single.Data {
					got := batched.Data[b*single.Len()+j]
					if math.Float32bits(got) != math.Float32bits(v) {
						t.Fatalf("%s d=%.2f sample %d logit %d: batched %v vs looped %v",
							name, density, b, j, got, v)
					}
				}
			}
		}
	}
}

// TestDVSBatchMatchesLooped covers the DVS topology's input pool and
// dropout layer (dropout passes through on clones and in eval mode, so
// predictions must still agree).
func TestDVSBatchMatchesLooped(t *testing.T) {
	r := rng.New(43)
	cfg := DefaultConfig(0.8, 4)
	net := DVSNet(cfg, 16, 16, 5, true, rng.New(3), nil)
	samples := randFrames(r, 5, cfg.Steps, 0.2, 2, 16, 16)
	preds := net.PredictBatch(samples)
	for b, fr := range samples {
		if p := net.Predict(fr); p != preds[b] {
			t.Fatalf("sample %d: batched pred %d vs looped %d", b, preds[b], p)
		}
	}
}

// TestBackwardBatchMatchesLooped checks that one batched training step
// accumulates the same parameter gradients as batches of one (the
// per-sample gradient terms are identical; only their summation order
// across the batch differs, so that comparison uses a scaled tolerance)
// and that the batched input-gradient pass yields each sample's input
// gradients bit for bit.
func TestBackwardBatchMatchesLooped(t *testing.T) {
	r := rng.New(44)
	cfg := DefaultConfig(0.6, 4)
	build := func() *Network { return MNISTNet(cfg, 1, 10, 10, true, rng.New(7)) }

	samples := randFrames(r, 6, cfg.Steps, 0.3, 1, 10, 10)
	labels := []int{0, 3, 1, 9, 4, 3}

	a := build()
	lossBatch, gradsIn := backwardBatch(a, samples, labels)

	b := build()
	lossLoop := 0.0
	loopGradsIn := make([][]*tensor.Tensor, len(samples))
	for i, fr := range samples {
		loss, gradsIn := backwardOne(b, fr, labels[i])
		lossLoop += loss
		loopGradsIn[i] = gradsIn
	}

	if math.Abs(lossBatch-lossLoop) > 1e-6*math.Max(1, math.Abs(lossLoop)) {
		t.Fatalf("loss mismatch: batched %v vs looped %v", lossBatch, lossLoop)
	}
	ga, gb := a.Grads(), b.Grads()
	for gi := range ga {
		for j := range ga[gi].Data {
			d := math.Abs(float64(ga[gi].Data[j] - gb[gi].Data[j]))
			if d > 1e-4 {
				t.Fatalf("grad tensor %d elem %d: batched %v vs looped %v",
					gi, j, ga[gi].Data[j], gb[gi].Data[j])
			}
		}
	}
	// Input gradients feed the attacks; they must agree per sample.
	per := samples[0][0].Len()
	for tstep := range gradsIn {
		for i := range samples {
			for j := 0; j < per; j++ {
				got := gradsIn[tstep].Data[i*per+j]
				want := loopGradsIn[i][tstep].Data[j]
				if math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("input grad step %d sample %d elem %d: %v vs %v",
						tstep, i, j, got, want)
				}
			}
		}
	}
}

// TestStackFramesRepeatsShortSequences pins the frame-repeat rule.
func TestStackFramesRepeatsShortSequences(t *testing.T) {
	one := tensor.FromSlice([]float32{1, 2}, 2)
	two := tensor.FromSlice([]float32{3, 4}, 2)
	three := tensor.FromSlice([]float32{5, 6}, 2)
	stacked := StackFrames([][]*tensor.Tensor{{one}, {two, three}}, 3)
	if len(stacked) != 3 {
		t.Fatalf("want 3 steps, got %d", len(stacked))
	}
	// Sample 0 repeats its single frame; sample 1 repeats its last.
	wantStep2 := []float32{1, 2, 5, 6}
	for i, v := range wantStep2 {
		if stacked[2].Data[i] != v {
			t.Fatalf("step 2 elem %d: got %v want %v", i, stacked[2].Data[i], v)
		}
	}
}

// TestAccuracyBatchedMatchesPredictLoop: the chunked Accuracy must agree
// with an explicit per-sample Predict loop over the same encoded
// stream.
func TestAccuracyBatchedMatchesPredictLoop(t *testing.T) {
	net := MNISTNet(DefaultConfig(0.5, 3), 1, 12, 12, true, rng.New(5))
	test := tinyTrainSet(40, 8)
	// Deterministic encoder so the streams cannot diverge.
	acc := Accuracy(net, test, directEnc{}, 9)
	correct := 0
	for _, s := range test.Samples {
		frames := directEnc{}.Encode(s.Image, net.Cfg.Steps, nil)
		if net.Predict(frames) == s.Label {
			correct++
		}
	}
	want := float64(correct) / float64(test.Len())
	if acc != want {
		t.Fatalf("batched accuracy %v vs looped %v", acc, want)
	}
}

// directEnc is a minimal deterministic encoder for the test above.
type directEnc struct{}

func (directEnc) Name() string { return "direct-test" }

func (directEnc) Encode(img *tensor.Tensor, steps int, _ *rng.RNG) []*tensor.Tensor {
	out := make([]*tensor.Tensor, steps)
	for t := range out {
		out[t] = img.Clone()
	}
	return out
}
