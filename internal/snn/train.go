package snn

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/encoding"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// TrainOptions configures supervised training on a static image dataset.
type TrainOptions struct {
	Epochs    int
	BatchSize int
	Optimizer Optimizer
	Encoder   encoding.Encoder
	Seed      uint64
	// ClipNorm, when positive, rescales the full gradient so its global
	// L2 norm does not exceed this value (stabilizes high-Vth training).
	ClipNorm float64
	// OnEpoch, when set, is invoked after every epoch.
	OnEpoch func(epoch int, meanLoss float64)
}

// clipGradients rescales grads in place to a global L2 norm of at most
// clip. No-op when clip <= 0.
func clipGradients(grads []*tensor.Tensor, clip float64) {
	if clip <= 0 {
		return
	}
	total := 0.0
	for _, g := range grads {
		n := g.L2Norm()
		total += float64(n * n)
	}
	norm := math.Sqrt(total)
	if norm <= clip {
		return
	}
	s := float32(clip / norm)
	for _, g := range grads {
		g.Scale(s)
	}
}

// disableTrainArena is a test hook: when set, Train/TrainFrames run the
// allocating minibatch path instead of the arena, which the equivalence
// tests use as the bit-identity reference.
var disableTrainArena bool

// trainStep runs one minibatch (forward, loss, backward) and returns
// the summed loss. With a training arena the whole step draws from
// reusable buffers (zero steady-state allocations); without one (the
// disableTrainArena hook) it takes the allocating batched path, one
// ForwardBatch/BackwardBatch per minibatch. The two are bit-identical.
func trainStep(n *Network, samples [][]*tensor.Tensor, labels []int, ts *TrainScratch) float64 {
	if ts != nil {
		return n.TrainStepScratch(samples, labels, ts)
	}
	logits := n.ForwardBatch(StackFrames(samples, n.Cfg.Steps), true)
	loss, grad := SoftmaxCrossEntropyBatch(logits, labels)
	n.BackwardBatch(grad)
	return loss
}

// acquireTrainArena returns the training arena Train/TrainFrames use,
// or nil when the test hook forces the allocating reference path.
func acquireTrainArena(n *Network) *TrainScratch {
	if disableTrainArena {
		return nil
	}
	return n.AcquireTrainScratch()
}

// minibatchUpdate applies the post-step bookkeeping shared by Train and
// TrainFrames: gradient clipping and one optimizer step, via the
// arena's cached tensor lists when one is in play.
func minibatchUpdate(n *Network, ts *TrainScratch, opt TrainOptions, batch int) {
	if ts != nil {
		clipGradients(ts.Grads(), opt.ClipNorm)
		opt.Optimizer.Step(ts.Params(), ts.Grads(), 1/float32(batch))
		return
	}
	clipGradients(n.Grads(), opt.ClipNorm)
	opt.Optimizer.Step(n.Params(), n.Grads(), 1/float32(batch))
}

// zeroGrads clears the gradients through the arena's cached list when
// available.
func zeroGrads(n *Network, ts *TrainScratch) {
	if ts != nil {
		ts.ZeroGrads()
		return
	}
	n.ZeroGrads()
}

// directFrames returns each sample's image as its one static frame
// when enc is Direct coding, which presents the image itself at every
// step and draws no randomness: the arena passes then present the
// frame every step, and nothing is copied. It returns nil for any other
// encoder.
func directFrames(enc encoding.Encoder, samples []dataset.Sample) [][]*tensor.Tensor {
	if _, ok := enc.(encoding.Direct); !ok {
		return nil
	}
	imgs := make([]*tensor.Tensor, len(samples))
	frames := make([][]*tensor.Tensor, len(samples))
	for i, s := range samples {
		imgs[i] = s.Image
		frames[i] = imgs[i : i+1]
	}
	return frames
}

// Train fits the network on a static image dataset with BPTT, one
// batched BPTT pass per minibatch, against one arena acquired for the
// whole fit, so the per-minibatch steady state (stacking, forward,
// loss, backward, clipping, optimizer step) allocates no tensors; only
// the per-sample encoding still does, and Direct coding encodes nothing
// (see directFrames).
func Train(n *Network, train *dataset.Set, opt TrainOptions) {
	if opt.BatchSize <= 0 {
		opt.BatchSize = 16
	}
	ts := acquireTrainArena(n)
	defer n.ReleaseTrain(ts)
	r := rng.New(opt.Seed)
	idx := make([]int, train.Len())
	for i := range idx {
		idx[i] = i
	}
	static := directFrames(opt.Encoder, train.Samples)
	samples := make([][]*tensor.Tensor, 0, opt.BatchSize)
	labels := make([]int, 0, opt.BatchSize)
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		totalLoss := 0.0
		for b := 0; b < len(idx); b += opt.BatchSize {
			end := b + opt.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			samples, labels = samples[:0], labels[:0]
			for _, i := range idx[b:end] {
				s := train.Samples[i]
				if static != nil {
					samples = append(samples, static[i])
				} else {
					samples = append(samples, opt.Encoder.Encode(s.Image, n.Cfg.Steps, r))
				}
				labels = append(labels, s.Label)
			}
			zeroGrads(n, ts)
			totalLoss += trainStep(n, samples, labels, ts)
			minibatchUpdate(n, ts, opt, end-b)
		}
		if opt.OnEpoch != nil {
			opt.OnEpoch(epoch, totalLoss/float64(len(idx)))
		}
	}
}

// TrainFrames fits the network on a pre-voxelized frame dataset (the DVS
// path): samples[i] is the frame sequence, labels[i] the class. Like
// Train, it runs the whole fit against one arena, making the
// steady-state minibatch cycle allocation-free.
func TrainFrames(n *Network, samples [][]*tensor.Tensor, labels []int, opt TrainOptions) {
	if opt.BatchSize <= 0 {
		opt.BatchSize = 8
	}
	ts := acquireTrainArena(n)
	defer n.ReleaseTrain(ts)
	r := rng.New(opt.Seed)
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	batch := make([][]*tensor.Tensor, 0, opt.BatchSize)
	blabels := make([]int, 0, opt.BatchSize)
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		totalLoss := 0.0
		for b := 0; b < len(idx); b += opt.BatchSize {
			end := b + opt.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch, blabels = batch[:0], blabels[:0]
			for _, i := range idx[b:end] {
				batch = append(batch, samples[i])
				blabels = append(blabels, labels[i])
			}
			zeroGrads(n, ts)
			totalLoss += trainStep(n, batch, blabels, ts)
			minibatchUpdate(n, ts, opt, end-b)
		}
		if opt.OnEpoch != nil {
			opt.OnEpoch(epoch, totalLoss/float64(len(idx)))
		}
	}
}

// evalChunk is the number of samples evaluated per batched forward:
// large enough to amortize per-batch weight transposes, small enough to
// keep the stacked frames cache-resident.
const evalChunk = 32

// Accuracy evaluates classification accuracy on a static image dataset.
// Encoding randomness is reseeded per call so repeated evaluations of
// the same model agree. The caller encodes the samples in order from
// the one seeded RNG, in rounds of Workers()·evalChunk samples to bound
// memory, and each round's evalChunk-sample chunks are classified
// concurrently (see countCorrect). The result is therefore the same at
// any worker count, and identical to encoding every sample in order and
// predicting each chunk serially. Direct coding encodes nothing: each
// image is one static frame (directFrames). The caller's network is not
// touched.
func Accuracy(n *Network, test *dataset.Set, enc encoding.Encoder, seed uint64) float64 {
	if test.Len() == 0 {
		return 0
	}
	clones := evalClones(n, test.Len())
	static := directFrames(enc, test.Samples)
	round := len(clones) * evalChunk
	r := rng.New(seed)
	samples := make([][]*tensor.Tensor, 0, round)
	labels := make([]int, 0, round)
	correct := 0
	for b := 0; b < test.Len(); b += round {
		samples, labels = samples[:0], labels[:0]
		for i, s := range test.Samples[b:min(b+round, test.Len())] {
			if static != nil {
				samples = append(samples, static[b+i])
			} else {
				samples = append(samples, enc.Encode(s.Image, n.Cfg.Steps, r))
			}
			labels = append(labels, s.Label)
		}
		correct += countCorrect(clones, samples, labels)
	}
	return float64(correct) / float64(test.Len())
}

// AccuracyFrames evaluates accuracy on pre-voxelized frame samples,
// classifying evalChunk-sample chunks concurrently (see countCorrect).
func AccuracyFrames(n *Network, samples [][]*tensor.Tensor, labels []int) float64 {
	if len(samples) == 0 {
		return 0
	}
	return float64(countCorrect(evalClones(n, len(samples)), samples, labels)) / float64(len(samples))
}

// evalClones builds one weight-sharing evaluation clone per block that
// can run at once over samples: min(Workers(), chunks).
func evalClones(n *Network, samples int) []*Network {
	clones := make([]*Network, min(tensor.Workers(), (samples+evalChunk-1)/evalChunk))
	for i := range clones {
		clones[i] = n.CloneArchitecture()
	}
	return clones
}

// countCorrect classifies samples in evalChunk-sample chunks fanned out
// over the shared worker pool in at most len(clones) blocks, block i on
// clones[i], and counts the predictions that match labels. A chunk's
// predictions do not depend on which block ran it, so the count is the
// same at any worker count, and the caller's network — its arena free
// list and LIF statistics — is left alone.
func countCorrect(clones []*Network, samples [][]*tensor.Tensor, labels []int) int {
	chunks := (len(samples) + evalChunk - 1) / evalChunk
	grain := (chunks + len(clones) - 1) / len(clones)
	preds := make([]int, len(samples))
	tensor.ParallelFor(chunks, grain, func(lo, hi int) {
		clone := clones[lo/grain]
		for c := lo; c < hi; c++ {
			b, e := c*evalChunk, min((c+1)*evalChunk, len(samples))
			clone.PredictBatchInto(samples[b:e], preds[b:e])
		}
	})
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	return correct
}

// Calibrate populates the LIF spike/membrane statistics the
// approximation-level equation reads: it resets them, then runs the
// inference pass on each calibration sample in turn, as a batch of one,
// with the membrane sum on. It is the only pass that accumulates
// StatVSum. It measures at the network's precision tier; every caller
// calibrates an FP32 master.
func Calibrate(n *Network, frames [][]*tensor.Tensor) {
	n.ResetStats()
	ts := n.AcquireTrainScratch()
	defer n.ReleaseTrain(ts)
	ts.membraneSum = true
	for i := range frames {
		n.forwardPass(frames[i:i+1], ts, passInfer)
	}
}
