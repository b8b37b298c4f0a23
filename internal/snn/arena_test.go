package snn

import (
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// arenaCase is one (network, input shape) pair covering the three layer
// stacks the arena must reproduce exactly: pure dense, conv+avgpool and
// the DVS topology with dropout.
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
	}
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

func TestForwardScratchMatchesForward(t *testing.T) {
	for _, tc := range arenaCases() {
		r := rng.New(11)
		for trial := 0; trial < 3; trial++ {
			frames := spikeFrames(r, tc.net.Cfg.Steps, tc.shape)
			want := tc.net.Forward(frames, false)
			s := tc.net.AcquireScratch()
			got := tc.net.forwardScratch(frames, s, 0)
			if !tensor.SameShape(want, got) {
				t.Fatalf("%s trial %d: shape %v vs %v", tc.name, trial, want.Shape, got.Shape)
			}
			for i := range want.Data {
				if want.Data[i] != got.Data[i] {
					t.Fatalf("%s trial %d: logit %d = %v, want %v (arena must be bit-identical)",
						tc.name, trial, i, got.Data[i], want.Data[i])
				}
			}
			tc.net.Release(s)
		}
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
// sizes and the per-sample path, so every arena buffer is resized and
// reused; each configuration must keep matching the allocating path.
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
			want := tc.net.Forward(samples[b], false).Argmax()
			if got[b] != want {
				t.Fatalf("batch %d sample %d: %d, want %d", batch, b, got[b], want)
			}
		}
	}
}

// TestArenaStatsMatch pins that the arena path accumulates the exact
// LIF calibration statistics of the allocating path — the approx
// package's level equation depends on them.
func TestArenaStatsMatch(t *testing.T) {
	for _, tc := range arenaCases() {
		r := rng.New(14)
		frames := spikeFrames(r, tc.net.Cfg.Steps, tc.shape)
		clone := tc.net.DeepClone()

		tc.net.ResetStats()
		tc.net.Forward(frames, false)
		clone.ResetStats()
		clone.Predict(frames)

		a, b := tc.net.LIFLayers(), clone.LIFLayers()
		for i := range a {
			if a[i].StatSpikes != b[i].StatSpikes || a[i].StatVSum != b[i].StatVSum ||
				a[i].StatSteps != b[i].StatSteps || a[i].StatUnits != b[i].StatUnits {
				t.Fatalf("%s LIF %d stats diverge: %+v vs %+v", tc.name, i,
					[4]float64{a[i].StatSpikes, a[i].StatVSum, float64(a[i].StatSteps), float64(a[i].StatUnits)},
					[4]float64{b[i].StatSpikes, b[i].StatVSum, float64(b[i].StatSteps), float64(b[i].StatUnits)})
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
	want := tc.net.Forward(frames, false)
	s := tc.net.AcquireScratch()
	got := tc.net.forwardScratch(frames, s, 0)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("masked logit %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
	tc.net.Release(s)
}

// TestPredictZeroAllocs asserts the arena's headline property: after
// warm-up, the Predict hot path allocates nothing — no tensors, no
// headers — in the deterministic serial mode (the pool's parallel
// dispatch allocates per-kernel job descriptors, so worker fan-out is
// excluded here).
func TestPredictZeroAllocs(t *testing.T) {
	tensor.SetWorkers(1)
	defer tensor.SetWorkers(0)
	for _, tc := range arenaCases() {
		frames := spikeFrames(rng.New(17), tc.net.Cfg.Steps, tc.shape)
		tc.net.Predict(frames) // warm the arena
		tc.net.Predict(frames)
		avg := testing.AllocsPerRun(20, func() { tc.net.Predict(frames) })
		if avg != 0 {
			t.Errorf("%s: Predict allocates %.1f objects/op in steady state, want 0", tc.name, avg)
		}
	}
}

// TestPredictBatchIntoZeroAllocs asserts the batched form of the same
// property via PredictBatchInto (PredictBatch itself allocates only the
// result slice).
func TestPredictBatchIntoZeroAllocs(t *testing.T) {
	tensor.SetWorkers(1)
	defer tensor.SetWorkers(0)
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
			t.Errorf("%s: PredictBatchInto allocates %.1f objects/op in steady state, want 0", tc.name, avg)
		}
	}
}

// TestPredictBatchIntoVariableBatchZeroAllocs pins the capacity-based
// arena reuse a streaming pipeline's narrower tail round depends on:
// once an arena has seen its high-water batch, every *smaller* batch
// must reslice the same buffers — zero allocations — and still
// classify each sample exactly as the per-sample path does (a shorter
// batch reslices state buffers over memory a larger pass dirtied, so
// this doubles as the stale-state regression).
func TestPredictBatchIntoVariableBatchZeroAllocs(t *testing.T) {
	tensor.SetWorkers(1)
	defer tensor.SetWorkers(0)
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
				t.Errorf("%s: batch %d after a warm batch 8 allocates %.1f objects/op, want 0 (capacity reuse)",
					tc.name, batch, avg)
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

// TestPredictScratchReuse exercises a caller-held arena across many
// predictions, the long-evaluation-loop pattern.
func TestPredictScratchReuse(t *testing.T) {
	tc := arenaCases()[2]
	r := rng.New(19)
	s := tc.net.AcquireScratch()
	defer tc.net.Release(s)
	for trial := 0; trial < 5; trial++ {
		frames := spikeFrames(r, tc.net.Cfg.Steps, tc.shape)
		want := tc.net.Forward(frames, false).Argmax()
		if got := tc.net.PredictScratch(frames, s); got != want {
			t.Fatalf("trial %d: %d, want %d", trial, got, want)
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

func init() {
	// Guard against accidental metric drift in the suite above: the
	// cases must stay arena-capable or every test silently weakens.
	for _, tc := range arenaCases() {
		if !tc.net.arenaCapable() {
			panic(fmt.Sprintf("snn: arena test case %q not arena-capable", tc.name))
		}
	}
}
