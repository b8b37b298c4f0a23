package snn

import (
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// arenaCase is one (network, input shape) pair covering the layer
// stacks the arena must reproduce exactly: pure dense (once with odd
// LIF widths, 10 and 5, which leave the LIF kernels' Go tail a
// remainder), conv+avgpool and the DVS topology with dropout, once as
// an evaluation net without a dropout RNG and once with a live one, on
// which inference must still treat dropout as the identity.
type arenaCase struct {
	name  string
	net   *Network
	shape []int
}

func arenaCases() []arenaCase {
	cfg := DefaultConfig(0.5, 6)
	return []arenaCase{
		{"dense", DenseNet(cfg, 144, 32, 10, rng.New(1)), []int{12, 12}},
		{"mnist-conv", MNISTNet(cfg, 1, 12, 12, true, rng.New(2)), []int{1, 12, 12}},
		{"dvs", DVSNet(DefaultConfig(1.0, 6), 16, 16, 11, true, rng.New(3), nil), []int{2, 16, 16}},
		{"dvs-dropout-rng", DVSNet(DefaultConfig(1.0, 6), 16, 16, 11, true, rng.New(3), rng.New(4)), []int{2, 16, 16}},
		{"dense-odd", DenseNet(cfg, 144, 10, 10, rng.New(6)), []int{12, 12}},
	}
}

// inferLogits runs the arena's inference pass, the one PredictBatchInto
// runs, over samples and returns a copy of the (B, classes) logits.
func inferLogits(net *Network, samples ...[]*tensor.Tensor) *tensor.Tensor {
	ts := net.AcquireTrainScratch()
	defer net.ReleaseTrain(ts)
	return net.forwardPass(samples, ts, passInfer).Clone()
}

// spikeFrames builds steps sparse 0/1 frames of the given shape.
func spikeFrames(r *rng.RNG, steps int, shape []int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, steps)
	for t := range out {
		f := tensor.New(shape...)
		for i := range f.Data {
			if r.Float64() < 0.25 {
				f.Data[i] = 1
			}
		}
		out[t] = f
	}
	return out
}

// analogFrames builds a Direct-coded input: one analog frame about 70%
// dense with continuous values, repeated every step.
func analogFrames(r *rng.RNG, steps int, shape []int) []*tensor.Tensor {
	f := tensor.New(shape...)
	for i := range f.Data {
		if r.Float64() < 0.7 {
			f.Data[i] = r.Float32()
		}
	}
	out := make([]*tensor.Tensor, steps)
	for t := range out {
		out[t] = f
	}
	return out
}

// TestForwardScratchMatchesForward pins the inference pass's logits to
// the allocating path's under ==, for lone samples (batches of one) on
// spike and analog inputs and for a batch of three.
func TestForwardScratchMatchesForward(t *testing.T) {
	for _, tc := range arenaCases() {
		r := rng.New(11)
		steps := tc.net.Cfg.Steps
		check := func(input string, want, got *tensor.Tensor) {
			t.Helper()
			if !tensor.SameShape(want, got) {
				t.Fatalf("%s %s: shape %v vs %v", tc.name, input, want.Shape, got.Shape)
			}
			for i := range want.Data {
				if want.Data[i] != got.Data[i] {
					t.Fatalf("%s %s: logit %d = %v, want %v (arena must be bit-identical)",
						tc.name, input, i, got.Data[i], want.Data[i])
				}
			}
		}
		for trial := 0; trial < 3; trial++ {
			frames := spikeFrames(r, steps, tc.shape)
			check(fmt.Sprintf("spike trial %d", trial), forwardOne(tc.net, frames, false), inferLogits(tc.net, frames))
		}
		analog := analogFrames(r, steps, tc.shape)
		check("analog", forwardOne(tc.net, analog, false), inferLogits(tc.net, analog))
		samples := [][]*tensor.Tensor{spikeFrames(r, steps, tc.shape), analogFrames(r, steps, tc.shape), spikeFrames(r, steps, tc.shape)}
		check("batch 3", tc.net.ForwardSamples(samples, false), inferLogits(tc.net, samples...))
	}
}

func TestPredictBatchArenaMatchesPerSample(t *testing.T) {
	for _, tc := range arenaCases() {
		r := rng.New(12)
		for _, batch := range []int{1, 3, 7} {
			samples := make([][]*tensor.Tensor, batch)
			for b := range samples {
				samples[b] = spikeFrames(r, tc.net.Cfg.Steps, tc.shape)
			}
			got := tc.net.PredictBatch(samples)
			for b := range samples {
				if want := tc.net.Predict(samples[b]); got[b] != want {
					t.Fatalf("%s batch %d sample %d: %d, want %d", tc.name, batch, b, got[b], want)
				}
			}
			// And against the pre-arena batched path.
			logits := tc.net.ForwardSamples(samples, false)
			per := logits.Len() / batch
			for b := range samples {
				want := tensor.FromSlice(logits.Data[b*per:(b+1)*per], per).Argmax()
				if got[b] != want {
					t.Fatalf("%s batch %d sample %d: arena %d, ForwardSamples %d", tc.name, batch, b, got[b], want)
				}
			}
		}
	}
}

// TestArenaShapeChanges drives one network through alternating batch
// sizes, so every arena buffer is resized and reused; each
// configuration must keep matching the allocating path.
func TestArenaShapeChanges(t *testing.T) {
	tc := arenaCases()[1]
	r := rng.New(13)
	for _, batch := range []int{5, 2, 8, 1, 5} {
		samples := make([][]*tensor.Tensor, batch)
		for b := range samples {
			samples[b] = spikeFrames(r, tc.net.Cfg.Steps, tc.shape)
		}
		got := tc.net.PredictBatch(samples)
		for b := range samples {
			want := forwardOne(tc.net, samples[b], false).Argmax()
			if got[b] != want {
				t.Fatalf("batch %d sample %d: %d, want %d", batch, b, got[b], want)
			}
		}
	}
}

// TestArenaStatsMatch pins that the arena's calibration pass
// accumulates the exact LIF calibration statistics of the allocating
// path — the approx package's level equation depends on them — for a
// lone sample (through Calibrate itself) and for a batch of three (the
// same pass on the whole batch), where both normalize the statistics
// per sample. A PredictBatch pass, on the arena a Calibrate parked,
// must count the same spikes, steps and units, which the serve tier's
// SOP estimate reads, and leave StatVSum as it found it.
func TestArenaStatsMatch(t *testing.T) {
	for _, tc := range arenaCases() {
		r := rng.New(14)
		steps := tc.net.Cfg.Steps
		lone := [][]*tensor.Tensor{spikeFrames(r, steps, tc.shape)}
		batch3 := [][]*tensor.Tensor{spikeFrames(r, steps, tc.shape), analogFrames(r, steps, tc.shape), spikeFrames(r, steps, tc.shape)}
		for _, in := range []struct {
			name    string
			samples [][]*tensor.Tensor
		}{{"lone", lone}, {"batch 3", batch3}} {
			calib, pred := tc.net.DeepClone(), tc.net.DeepClone()
			tc.net.ResetStats()
			tc.net.ForwardSamples(in.samples, false)
			if len(in.samples) == 1 {
				Calibrate(calib, in.samples)
			} else {
				calib.ResetStats()
				ts := calib.AcquireTrainScratch()
				ts.membraneSum = true
				calib.forwardPass(in.samples, ts, passInfer)
				calib.ReleaseTrain(ts)
			}
			// pred calibrates first, so PredictBatch recycles the arena
			// Calibrate ran on.
			Calibrate(pred, in.samples)
			const untouched = 12.5
			pred.ResetStats()
			for _, l := range pred.LIFLayers() {
				l.StatVSum = untouched
			}
			pred.PredictBatch(in.samples)

			stats := func(l *LIF) [4]float64 {
				return [4]float64{l.StatSpikes, l.StatVSum, float64(l.StatSteps), float64(l.StatUnits)}
			}
			a, b, p := tc.net.LIFLayers(), calib.LIFLayers(), pred.LIFLayers()
			for i := range a {
				if a[i].StatSpikes != b[i].StatSpikes || a[i].StatVSum != b[i].StatVSum ||
					a[i].StatSteps != b[i].StatSteps || a[i].StatUnits != b[i].StatUnits {
					t.Fatalf("%s %s LIF %d calibration stats diverge: %+v vs %+v", tc.name, in.name, i, stats(a[i]), stats(b[i]))
				}
				if a[i].StatSpikes != p[i].StatSpikes || p[i].StatVSum != untouched ||
					a[i].StatSteps != p[i].StatSteps || a[i].StatUnits != p[i].StatUnits {
					t.Fatalf("%s %s LIF %d PredictBatch stats %+v, want %+v with StatVSum left at %v",
						tc.name, in.name, i, stats(p[i]), stats(a[i]), untouched)
				}
			}
		}
	}
}

// TestArenaWithMask pins arena equivalence for pruned networks (the
// approx path installs weight masks, which the arena re-applies once
// per pass like Reset did).
func TestArenaWithMask(t *testing.T) {
	tc := arenaCases()[1]
	mr := rng.New(15)
	for _, l := range tc.net.Layers {
		switch v := l.(type) {
		case *Conv2D:
			v.Mask = tensor.New(v.W.Shape...)
			for i := range v.Mask.Data {
				if mr.Float64() < 0.7 {
					v.Mask.Data[i] = 1
				}
			}
		case *Dense:
			v.Mask = tensor.New(v.W.Shape...)
			for i := range v.Mask.Data {
				if mr.Float64() < 0.7 {
					v.Mask.Data[i] = 1
				}
			}
		}
	}
	frames := spikeFrames(rng.New(16), tc.net.Cfg.Steps, tc.shape)
	want := forwardOne(tc.net, frames, false)
	got := inferLogits(tc.net, frames)
	if got.Len() != want.Len() {
		t.Fatalf("masked logits: %d, want %d", got.Len(), want.Len())
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("masked logit %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestPredictZeroAllocs asserts the arena's headline property: after
// warm-up, the Predict hot path allocates nothing — no tensors, no
// headers, not even the batch of one it wraps the sample in — at any
// worker count. FP32 inference dispatches no pool kernel: conv layers
// scatter their spikes serially and dense layers run the serial GEMM.
// The 16×16 MNIST and 32×32 DVS nets at T = 8 are large enough that a
// parallel kernel would be worth dispatching there, so the two-worker
// run would catch one.
func TestPredictZeroAllocs(t *testing.T) {
	defer tensor.SetWorkers(0)
	cases := append(arenaCases(),
		arenaCase{"mnist-conv-16", MNISTNet(DefaultConfig(0.5, 8), 1, 16, 16, true, rng.New(4)), []int{1, 16, 16}},
		arenaCase{"dvs-32", DVSNet(DefaultConfig(1.0, 8), 32, 32, 11, true, rng.New(5), nil), []int{2, 32, 32}})
	for _, workers := range []int{1, 2} {
		tensor.SetWorkers(workers)
		for _, tc := range cases {
			frames := spikeFrames(rng.New(17), tc.net.Cfg.Steps, tc.shape)
			tc.net.Predict(frames) // warm the arena
			tc.net.Predict(frames)
			avg := testing.AllocsPerRun(20, func() { tc.net.Predict(frames) })
			if avg != 0 {
				t.Errorf("%s at %d workers: Predict allocates %.1f objects/op in steady state, want 0", tc.name, workers, avg)
			}
		}
	}
}

// TestPredictBatchIntoZeroAllocs asserts the batched form of the same
// property via PredictBatchInto (PredictBatch itself allocates only the
// result slice).
func TestPredictBatchIntoZeroAllocs(t *testing.T) {
	defer tensor.SetWorkers(0)
	for _, workers := range []int{1, 2} {
		tensor.SetWorkers(workers)
		for _, tc := range arenaCases() {
			r := rng.New(18)
			samples := make([][]*tensor.Tensor, 4)
			for b := range samples {
				samples[b] = spikeFrames(r, tc.net.Cfg.Steps, tc.shape)
			}
			out := make([]int, len(samples))
			tc.net.PredictBatchInto(samples, out) // warm the arena
			tc.net.PredictBatchInto(samples, out)
			avg := testing.AllocsPerRun(20, func() { tc.net.PredictBatchInto(samples, out) })
			if avg != 0 {
				t.Errorf("%s at %d workers: PredictBatchInto allocates %.1f objects/op in steady state, want 0", tc.name, workers, avg)
			}
		}
	}
}

// TestPredictBatchIntoVariableBatchZeroAllocs pins the capacity-based
// arena reuse a streaming pipeline's narrower tail round depends on:
// once an arena has seen its high-water batch, every *smaller* batch
// must reslice the same buffers — zero allocations — and still
// classify each sample exactly as Predict on it alone does (a shorter
// batch reslices state buffers over memory a larger pass dirtied, so
// this doubles as the stale-state regression).
func TestPredictBatchIntoVariableBatchZeroAllocs(t *testing.T) {
	defer tensor.SetWorkers(0)
	for _, workers := range []int{1, 2} {
		tensor.SetWorkers(workers)
		for _, tc := range arenaCases() {
			r := rng.New(21)
			samples := make([][]*tensor.Tensor, 8)
			for b := range samples {
				samples[b] = spikeFrames(r, tc.net.Cfg.Steps, tc.shape)
			}
			out := make([]int, len(samples))
			tc.net.PredictBatchInto(samples, out) // high-water warm at batch 8
			for _, batch := range []int{3, 5, 1, 8, 7} {
				sub, subOut := samples[:batch], out[:batch]
				avg := testing.AllocsPerRun(10, func() { tc.net.PredictBatchInto(sub, subOut) })
				if avg != 0 {
					t.Errorf("%s at %d workers: batch %d after a warm batch 8 allocates %.1f objects/op, want 0 (capacity reuse)",
						tc.name, workers, batch, avg)
				}
				for b := 0; b < batch; b++ {
					if want := tc.net.Predict(samples[b]); subOut[b] != want {
						t.Fatalf("%s: batch %d sample %d classified %d, want %d (resliced arena must stay exact)",
							tc.name, batch, b, subOut[b], want)
					}
				}
				// Re-warm at the high water so Predict's batch-1 pass above
				// doesn't define the next iteration's length transition.
				tc.net.PredictBatchInto(samples, out)
			}
		}
	}
}

// TestPredictArenaReuse runs many predictions through Predict and
// PredictBatchInto: each must match the allocating path, and all of
// them must recycle the one arena parked on the network's free list.
func TestPredictArenaReuse(t *testing.T) {
	tc := arenaCases()[2]
	r := rng.New(19)
	ts := tc.net.AcquireTrainScratch()
	tc.net.ReleaseTrain(ts)
	out := make([]int, 1)
	for trial := 0; trial < 5; trial++ {
		frames := spikeFrames(r, tc.net.Cfg.Steps, tc.shape)
		want := forwardOne(tc.net, frames, false).Argmax()
		if got := tc.net.Predict(frames); got != want {
			t.Fatalf("trial %d: %d, want %d", trial, got, want)
		}
		tc.net.PredictBatchInto([][]*tensor.Tensor{frames}, out)
		if out[0] != want {
			t.Fatalf("trial %d: PredictBatchInto %d, want %d", trial, out[0], want)
		}
		if len(tc.net.trainFree) != 1 || tc.net.trainFree[0] != ts {
			t.Fatalf("trial %d: free list %v, want the one parked arena", trial, tc.net.trainFree)
		}
	}
}

func TestPredictBatchIntoLengthMismatch(t *testing.T) {
	tc := arenaCases()[0]
	frames := spikeFrames(rng.New(20), tc.net.Cfg.Steps, tc.shape)
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	tc.net.PredictBatchInto([][]*tensor.Tensor{frames}, make([]int, 2))
}
