package snn

import (
	"fmt"
	"testing"

	"repro/internal/encoding"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// trainCase builds numerically identical network instances on demand so
// the arena and the reference can train twins.
type trainCase struct {
	name    string
	build   func() *Network
	shape   []int
	classes int
}

func trainCases() []trainCase {
	cfg := DefaultConfig(0.5, 6)
	return []trainCase{
		{"dense", func() *Network { return DenseNet(cfg, 144, 32, 10, rng.New(1)) }, []int{12, 12}, 10},
		{"mnist-conv", func() *Network { return MNISTNet(cfg, 1, 12, 12, true, rng.New(2)) }, []int{1, 12, 12}, 10},
		// Dropout layers own an RNG, so twin builds draw identical masks.
		{"dvs-dropout", func() *Network {
			return DVSNet(DefaultConfig(1.0, 6), 16, 16, 11, true, rng.New(3), rng.New(99))
		}, []int{2, 16, 16}, 11},
		// LIF widths 10 and 5 leave the LIF kernels' Go tail a remainder
		// at every batch size, and odd batches split unevenly over blocks.
		{"dense-odd", func() *Network { return DenseNet(cfg, 144, 10, 10, rng.New(6)) }, []int{12, 12}, 10},
	}
}

// mustMatchTensors compares aligned tensor lists bit-for-bit.
func mustMatchTensors(t *testing.T, label string, want, got []*tensor.Tensor) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d tensors vs %d", label, len(want), len(got))
	}
	for k := range want {
		for i := range want[k].Data {
			if want[k].Data[i] != got[k].Data[i] {
				t.Fatalf("%s: tensor %d element %d = %v, want %v (must be bit-identical)",
					label, k, i, got[k].Data[i], want[k].Data[i])
			}
		}
	}
}

// TestTrainStepScratchMatchesBatch pins the arena minibatch step —
// loss, accumulated gradients and optimizer-updated weights — to the
// reference, across changing batch sizes (a lone sample, and batches
// that split unevenly over the blocks) and at 1..N workers.
func TestTrainStepScratchMatchesBatch(t *testing.T) {
	defer tensor.SetWorkers(0)
	for _, workers := range []int{1, 3} {
		tensor.SetWorkers(workers)
		for _, tc := range trainCases() {
			ref, arena := tc.build(), tc.build()
			ts := arena.AcquireTrainScratch()
			optR, optA := NewAdam(2e-3), NewAdam(2e-3)
			r := rng.New(21)
			for step, batch := range []int{2, 3, 4, 5, 1} { // exercise buffer resizing
				samples := make([][]*tensor.Tensor, batch)
				labels := make([]int, batch)
				for b := range samples {
					samples[b] = spikeFrames(r, ref.Cfg.Steps, tc.shape)
					labels[b] = b % tc.classes
				}
				zeroGrads(ref)
				lossR := refTrainStep(ref, samples, labels)

				ts.ZeroGrads()
				lossA := arena.TrainStepScratch(samples, labels, ts)

				if lossR != lossA {
					t.Fatalf("%s w%d step %d: loss %v, want %v", tc.name, workers, step, lossA, lossR)
				}
				mustMatchTensors(t, tc.name+" grads", ref.Grads(), arena.Grads())

				optR.Step(ref.Params(), ref.Grads(), 1/float32(batch))
				optA.Step(ts.Params(), ts.Grads(), 1/float32(batch))
				mustMatchTensors(t, tc.name+" params", ref.Params(), arena.Params())
			}
			arena.ReleaseTrain(ts)
		}
	}
}

// TestTrainMatchesAllocatingPath trains twin networks over several
// epochs — one through Train on the arena, one through the reference's
// replay of its minibatch loop (refFit) — and requires bit-identical
// weights, at 1..4 workers, with rate coding and with Direct coding
// (one static frame per sample, so the arena runs the step-invariant
// layers once). Minibatches of 7 split unevenly over 2, 3 and 4
// blocks, and each epoch ends on a lone sample.
func TestTrainMatchesAllocatingPath(t *testing.T) {
	defer tensor.SetWorkers(0)
	set := tinyTrainSet(50, 31)
	for _, enc := range []encoding.Encoder{encoding.Rate{}, encoding.Direct{}} {
		for _, workers := range []int{1, 2, 3, 4} {
			tensor.SetWorkers(workers)
			opt := TrainOptions{
				Epochs: 3, BatchSize: 7,
				Encoder:  enc,
				Seed:     7,
				ClipNorm: 1.0,
			}
			ref := DenseNet(DefaultConfig(0.5, 5), set.H*set.W, 24, 10, rng.New(4))
			arena := DenseNet(DefaultConfig(0.5, 5), set.H*set.W, 24, 10, rng.New(4))

			refOpt := opt
			refOpt.Optimizer = NewAdam(2e-3)
			refFit(ref, set.Len(), refOpt, func(i int, r *rng.RNG) ([]*tensor.Tensor, int) {
				s := set.Samples[i]
				return enc.Encode(s.Image, ref.Cfg.Steps, r), s.Label
			})

			arenaOpt := opt
			arenaOpt.Optimizer = NewAdam(2e-3)
			Train(arena, set, arenaOpt)

			mustMatchTensors(t, fmt.Sprintf("%s w%d trained weights", enc.Name(), workers), ref.Params(), arena.Params())
		}
	}
}

// TestTrainFramesMatchesAllocatingPath is the DVS-path variant of the
// epoch-level equivalence, covering dropout, whose stream every block
// must draw exactly as the whole batch did, and the pool-bottomed
// topology whose input gradients the arena elides, at 1..4 workers:
// minibatches of 5 split unevenly, and each epoch ends on a lone sample.
func TestTrainFramesMatchesAllocatingPath(t *testing.T) {
	defer tensor.SetWorkers(0)
	r := rng.New(41)
	samples := make([][]*tensor.Tensor, 21)
	labels := make([]int, len(samples))
	for i := range samples {
		samples[i] = spikeFrames(r, 6, []int{2, 16, 16})
		labels[i] = i % 11
	}
	build := func() *Network {
		return DVSNet(DefaultConfig(1.0, 6), 16, 16, 11, true, rng.New(5), rng.New(77))
	}
	opt := TrainOptions{Epochs: 2, BatchSize: 5, Seed: 9}

	ref := build()
	refOpt := opt
	refOpt.Optimizer = NewSGD(0.05, 0.9)
	refFit(ref, len(samples), refOpt, func(i int, _ *rng.RNG) ([]*tensor.Tensor, int) { return samples[i], labels[i] })

	for _, workers := range []int{1, 2, 3, 4} {
		tensor.SetWorkers(workers)
		arena := build()
		arenaOpt := opt
		arenaOpt.Optimizer = NewSGD(0.05, 0.9)
		TrainFrames(arena, samples, labels, arenaOpt)
		mustMatchTensors(t, fmt.Sprintf("w%d trained weights", workers), ref.Params(), arena.Params())
	}
}

// randomMasks installs a random 0/1 prune mask on every Conv2D and
// Dense layer, the shape of net the approx package builds.
func randomMasks(net *Network, r *rng.RNG) {
	for _, l := range net.Layers {
		var m *tensor.Tensor
		switch v := l.(type) {
		case *Conv2D:
			v.Mask = tensor.New(v.W.Shape...)
			m = v.Mask
		case *Dense:
			v.Mask = tensor.New(v.W.Shape...)
			m = v.Mask
		default:
			continue
		}
		for i := range m.Data {
			if r.Float64() < 0.7 {
				m.Data[i] = 1
			}
		}
	}
}

// TestInputGradSumScratchMatchesAllocating pins the attack-crafting
// quantity of the input-only arena pass, the summed input gradient and
// its per-step terms, to the reference's. It covers plain and randomly
// pruned nets, and batches of 1 and 4, at 1..N workers, on the inputs
// the attacks craft on: spike frames, an analog frame repeated every
// step, a Direct-coded image (one static frame, so the arena runs the
// step-invariant layers once) and a multi-frame sample longer than the
// net's steps, as the sparse event attack voxelizes one.
func TestInputGradSumScratchMatchesAllocating(t *testing.T) {
	defer tensor.SetWorkers(0)
	inputs := []struct {
		name  string
		build func(*rng.RNG, int, []int) []*tensor.Tensor
	}{
		{"spike", spikeFrames},
		{"analog", analogFrames},
		{"direct", func(r *rng.RNG, steps int, shape []int) []*tensor.Tensor { return analogFrames(r, 1, shape) }},
		{"long", func(r *rng.RNG, steps int, shape []int) []*tensor.Tensor { return spikeFrames(r, steps+2, shape) }},
	}
	for _, workers := range []int{1, 3} {
		tensor.SetWorkers(workers)
		for _, tc := range trainCases() {
			for _, masked := range []bool{false, true} {
				net := tc.build()
				if masked {
					randomMasks(net, rng.New(52))
				}
				for _, in := range inputs {
					for _, batch := range []int{1, 4} {
						name := fmt.Sprintf("%s masked=%v %s b%d w%d", tc.name, masked, in.name, batch, workers)
						r := rng.New(51)
						samples := make([][]*tensor.Tensor, batch)
						labels := make([]int, batch)
						for b := range samples {
							samples[b] = in.build(r, net.Cfg.Steps, tc.shape)
							labels[b] = (b + 1) % tc.classes
						}
						wantSteps := refInputGrads(net, samples, labels)
						want := encoding.SumFrameGradients(wantSteps)

						clone := net.CloneArchitecture()
						ts := clone.AcquireTrainScratch()
						got := clone.InputGradSumScratch(samples, labels, ts)
						if !tensor.SameShape(want, got) {
							t.Fatalf("%s: shape %v vs %v", name, got.Shape, want.Shape)
						}
						mustMatchTensors(t, name+" sum", []*tensor.Tensor{want}, []*tensor.Tensor{got})
						mustMatchTensors(t, name+" steps", wantSteps, ts.InputGradSteps())
						clone.ReleaseTrain(ts)
					}
				}
			}
		}
	}
}

// TestInputGradSumScratchLeavesGrads pins the input-only contract: the
// pass computes no parameter gradient, so every Grads() tensor keeps
// the exact bits it held before, sentinel values no pass would write
// included.
func TestInputGradSumScratchLeavesGrads(t *testing.T) {
	for _, tc := range trainCases() {
		net := tc.build().CloneArchitecture()
		ts := net.AcquireTrainScratch()
		var want []*tensor.Tensor
		for k, g := range ts.Grads() {
			for i := range g.Data {
				g.Data[i] = float32(k+1) + float32(i)/8
			}
			want = append(want, g.Clone())
		}
		r := rng.New(53)
		samples := make([][]*tensor.Tensor, 3)
		labels := make([]int, len(samples))
		for b := range samples {
			samples[b] = spikeFrames(r, net.Cfg.Steps, tc.shape)
			labels[b] = b % tc.classes
		}
		net.InputGradSumScratch(samples, labels, ts)
		mustMatchTensors(t, tc.name+" grads after an input-only pass", want, net.Grads())
		net.ReleaseTrain(ts)
	}
}

// TestTrainAndInputPassesAlternate rotates the arena's three pass kinds
// (TrainStepScratch, InputGradSumScratch and the inference pass) on one
// network, every pass recycling the one arena parked on its free list.
// Between them only the training pass writes the conv and dense input
// caches and the weight-gradient panels. Every loss, parameter
// gradient, input gradient and logit must equal a twin's computed on a
// fresh arena per call, and the rotation, with inference through
// PredictBatchInto, must stay allocation-free at 1 and 2 workers.
func TestTrainAndInputPassesAlternate(t *testing.T) {
	defer tensor.SetWorkers(0)
	for _, workers := range []int{1, 2} {
		tensor.SetWorkers(workers)
		for _, tc := range trainCases() {
			// Twins: dropout draws the same masks in the same call order.
			shared, twin := tc.build(), tc.build()
			parked := shared.AcquireTrainScratch()
			shared.ReleaseTrain(parked)
			acquire := func(name string) *TrainScratch {
				ts := shared.AcquireTrainScratch()
				if ts != parked || len(shared.trainFree) != 0 {
					t.Fatalf("%s: every pass must recycle the one parked arena", name)
				}
				return ts
			}
			fresh := func() *TrainScratch {
				twin.trainFree = nil // never recycle: a new arena per call
				return twin.AcquireTrainScratch()
			}
			r := rng.New(54)
			for call := 0; call < 9; call++ {
				name := fmt.Sprintf("%s w%d call %d", tc.name, workers, call)
				batch := 2 + call%4
				samples := make([][]*tensor.Tensor, batch)
				labels := make([]int, batch)
				for b := range samples {
					samples[b] = spikeFrames(r, shared.Cfg.Steps, tc.shape)
					labels[b] = (b + call) % tc.classes
				}
				ts, tf := acquire(name), fresh()
				switch call % 3 {
				case 0:
					ts.ZeroGrads()
					tf.ZeroGrads()
					got, want := shared.TrainStepScratch(samples, labels, ts), twin.TrainStepScratch(samples, labels, tf)
					if got != want {
						t.Fatalf("%s: loss %v, want %v", name, got, want)
					}
				case 1:
					got := shared.InputGradSumScratch(samples, labels, ts)
					want := twin.InputGradSumScratch(samples, labels, tf)
					mustMatchTensors(t, name+" input grad", []*tensor.Tensor{want}, []*tensor.Tensor{got})
				default:
					got := shared.forwardPass(samples, ts, passInfer)
					want := twin.forwardPass(samples, tf, passInfer)
					mustMatchTensors(t, name+" logits", []*tensor.Tensor{want}, []*tensor.Tensor{got})
				}
				mustMatchTensors(t, name+" grads", twin.Grads(), shared.Grads())
				shared.ReleaseTrain(ts)
				twin.ReleaseTrain(tf)
			}

			r = rng.New(55)
			samples := make([][]*tensor.Tensor, 3)
			labels := make([]int, len(samples))
			for b := range samples {
				samples[b] = spikeFrames(r, shared.Cfg.Steps, tc.shape)
				labels[b] = b % tc.classes
			}
			out := make([]int, len(samples))
			cycle := func() {
				ts := shared.AcquireTrainScratch()
				ts.ZeroGrads()
				shared.TrainStepScratch(samples, labels, ts)
				shared.InputGradSumScratch(samples, labels, ts)
				shared.ReleaseTrain(ts)
				shared.PredictBatchInto(samples, out)
			}
			cycle() // warm all three passes at this batch size
			cycle()
			if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
				t.Errorf("%s at %d workers: rotating passes allocate %.1f objects/op in steady state, want 0", tc.name, workers, avg)
			}
			if len(shared.trainFree) != 1 || shared.trainFree[0] != parked {
				t.Errorf("%s at %d workers: the rotation left %d arenas parked, want the one", tc.name, workers, len(shared.trainFree))
			}
		}
	}
}

// TestTrainStepScratchWorkerInvariant pins training to the worker-count
// contract: every kernel is serial, so the losses and weights after a
// few steps must be bit-identical at any budget. The 2-class readout's
// weight gradient (k = batch 64, m = 256, n = 2) is the narrow TMatMul
// shape a parallel k-split reduction would round differently.
func TestTrainStepScratchWorkerInvariant(t *testing.T) {
	defer tensor.SetWorkers(0)
	run := func() ([]float64, []*tensor.Tensor) {
		net := DenseNet(DefaultConfig(0.5, 4), 144, 512, 2, rng.New(91))
		ts := net.AcquireTrainScratch()
		defer net.ReleaseTrain(ts)
		opt := NewAdam(2e-3)
		r := rng.New(92)
		var losses []float64
		for step := 0; step < 3; step++ {
			samples := make([][]*tensor.Tensor, 64)
			labels := make([]int, len(samples))
			for b := range samples {
				samples[b] = spikeFrames(r, net.Cfg.Steps, []int{12, 12})
				labels[b] = b % 2
			}
			ts.ZeroGrads()
			losses = append(losses, net.TrainStepScratch(samples, labels, ts))
			opt.Step(ts.Params(), ts.Grads(), 1/float32(len(samples)))
		}
		return losses, net.Params()
	}
	tensor.SetWorkers(1)
	wantLosses, wantParams := run()
	for _, workers := range []int{2, 4} {
		tensor.SetWorkers(workers)
		losses, params := run()
		for step, l := range losses {
			if l != wantLosses[step] {
				t.Fatalf("%d workers step %d: loss %v, want %v", workers, step, l, wantLosses[step])
			}
		}
		mustMatchTensors(t, fmt.Sprintf("weights at %d workers", workers), wantParams, params)
	}
}

// TestTrainStepScratchZeroAllocs asserts the arena's headline property:
// after warm-up, the whole steady-state minibatch cycle — zeroing,
// frame stacking, training forward, loss, BPTT, clipping, optimizer
// step — allocates nothing, at 1 and 2 workers: the step's sample
// blocks, reduction buffers and fan-out bodies are built on the first
// cycle, and the pool's launches allocate nothing.
func TestTrainStepScratchZeroAllocs(t *testing.T) {
	defer tensor.SetWorkers(0)
	for _, workers := range []int{1, 2} {
		tensor.SetWorkers(workers)
		for _, tc := range trainCases() {
			net := tc.build()
			ts := net.AcquireTrainScratch()
			r := rng.New(61)
			samples := make([][]*tensor.Tensor, 4)
			labels := make([]int, len(samples))
			for b := range samples {
				samples[b] = spikeFrames(r, net.Cfg.Steps, tc.shape)
				labels[b] = b % tc.classes
			}
			opt := NewAdam(2e-3)
			cycle := func() {
				ts.ZeroGrads()
				net.TrainStepScratch(samples, labels, ts)
				clipGradients(ts.Grads(), 1.0)
				opt.Step(ts.Params(), ts.Grads(), 0.25)
			}
			cycle() // warm the arena and the optimizer state
			cycle()
			if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
				t.Errorf("%s at %d workers: train step allocates %.1f objects/op in steady state, want 0", tc.name, workers, avg)
			}
			net.ReleaseTrain(ts)
		}
	}
}

// TestInputGradSumScratchZeroAllocs asserts the same property for the
// attack-crafting gradient pass against a caller-held arena.
func TestInputGradSumScratchZeroAllocs(t *testing.T) {
	defer tensor.SetWorkers(0)
	tc := trainCases()[1]
	net := tc.build().CloneArchitecture()
	ts := net.AcquireTrainScratch()
	r := rng.New(71)
	samples := make([][]*tensor.Tensor, 3)
	labels := make([]int, len(samples))
	for b := range samples {
		samples[b] = spikeFrames(r, net.Cfg.Steps, tc.shape)
		labels[b] = b % tc.classes
	}
	pass := func() { net.InputGradSumScratch(samples, labels, ts) }
	for _, workers := range []int{1, 2} {
		tensor.SetWorkers(workers)
		pass()
		pass()
		if avg := testing.AllocsPerRun(10, pass); avg != 0 {
			t.Errorf("input-gradient pass at %d workers allocates %.1f objects/op in steady state, want 0", workers, avg)
		}
	}
	net.ReleaseTrain(ts)
}

// TestSoftmaxCrossEntropyBatchIntoMatches pins the Into loss to the
// reference's bit-for-bit, stale destination included.
func TestSoftmaxCrossEntropyBatchIntoMatches(t *testing.T) {
	r := rng.New(81)
	logits := tensor.New(5, 7)
	for i := range logits.Data {
		logits.Data[i] = r.NormFloat32() * 3
	}
	labels := []int{0, 6, 3, 3, 1}
	wantLoss, wantGrad := refLoss(logits, labels)
	grad := tensor.New(5, 7)
	for i := range grad.Data {
		grad.Data[i] = 42 // stale contents must vanish
	}
	gotLoss := SoftmaxCrossEntropyBatchInto(logits, labels, grad)
	if gotLoss != wantLoss {
		t.Fatalf("loss %v, want %v", gotLoss, wantLoss)
	}
	for i := range wantGrad.Data {
		if grad.Data[i] != wantGrad.Data[i] {
			t.Fatalf("grad %d = %v, want %v", i, grad.Data[i], wantGrad.Data[i])
		}
	}
}

// TestTrainScratchPoolRecycles pins the acquire/release free-list
// contract.
func TestTrainScratchPoolRecycles(t *testing.T) {
	net := trainCases()[0].build()
	ts := net.AcquireTrainScratch()
	net.ReleaseTrain(ts)
	if got := net.AcquireTrainScratch(); got != ts {
		t.Fatal("released TrainScratch must be recycled by the next acquire")
	}
}
