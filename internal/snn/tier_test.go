package snn

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// int8Net builds a small conv+dense stack with panels ready.
func int8Net(t testing.TB) *Network {
	t.Helper()
	net := DVSNet(DefaultConfig(1.0, 6), 16, 16, 11, true, rng.New(3), nil)
	if err := net.BuildInt8Panels(); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestSetTierRequiresPanels(t *testing.T) {
	net := DVSNet(DefaultConfig(1.0, 6), 16, 16, 11, true, rng.New(3), nil)
	if err := net.SetTier(TierINT8); err == nil {
		t.Fatal("SetTier(int8) without panels must error")
	}
	if net.Tier() != TierFP32 {
		t.Fatal("failed SetTier must leave the tier unchanged")
	}
	if err := net.BuildInt8Panels(); err != nil {
		t.Fatal(err)
	}
	if err := net.SetTier(TierINT8); err != nil {
		t.Fatal(err)
	}
	if net.Tier() != TierINT8 {
		t.Fatal("tier did not switch")
	}
	if err := net.SetTier(TierFP32); err != nil {
		t.Fatal(err)
	}
	if net.Tier() != TierFP32 {
		t.Fatal("tier did not switch back")
	}
}

// The INT8 tier must be bit-identical across worker counts and across
// batch compositions: the same sample yields the same logits whether it
// runs alone, inside any batch, serial or parallel. This is the
// property that keeps a served window's class independent of the batch
// it rides in.
func TestInt8TierDeterministic(t *testing.T) {
	defer tensor.SetWorkers(0)
	net := int8Net(t)
	if err := net.SetTier(TierINT8); err != nil {
		t.Fatal(err)
	}
	r := rng.New(17)
	const batch = 5
	samples := make([][]*tensor.Tensor, batch)
	for b := range samples {
		samples[b] = spikeFrames(r, net.Cfg.Steps, []int{2, 16, 16})
	}

	// Reference: per-sample logits at one worker.
	tensor.SetWorkers(1)
	var want [][]float32
	for b := range samples {
		want = append(want, inferLogits(net, samples[b]).Data)
	}

	for _, workers := range []int{1, 2, 4} {
		tensor.SetWorkers(workers)
		// Full batch: every sample's row must equal its solo logits.
		logits := inferLogits(net, samples...)
		for b := range samples {
			row := logits.Data[b*len(want[0]) : (b+1)*len(want[0])]
			for j, v := range row {
				if v != want[b][j] {
					t.Fatalf("workers=%d sample %d logit %d: batched %v vs solo %v",
						workers, b, j, v, want[b][j])
				}
			}
		}
	}
}

// Clones share the panels and inherit the tier; their logits match the
// parent bit for bit.
func TestInt8TierClonePropagation(t *testing.T) {
	net := int8Net(t)
	if err := net.SetTier(TierINT8); err != nil {
		t.Fatal(err)
	}
	clone := net.CloneArchitecture()
	if clone.Tier() != TierINT8 {
		t.Fatal("CloneArchitecture must carry the tier")
	}
	r := rng.New(29)
	frames := spikeFrames(r, net.Cfg.Steps, []int{2, 16, 16})
	a := inferLogits(net, frames)
	b := inferLogits(clone, frames)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("clone logit %d: %v vs %v", i, b.Data[i], a.Data[i])
		}
	}

	// DeepClone is for mutation: it must NOT carry panels or tier.
	deep := net.DeepClone()
	if deep.Tier() != TierFP32 {
		t.Fatal("DeepClone must reset the tier to FP32")
	}
	if err := deep.SetTier(TierINT8); err == nil {
		t.Fatal("DeepClone must drop the panels")
	}
}

// The quantized tier stays close to FP32: same argmax on most inputs
// and bounded logit error — the kernel-level guarantee under the exp
// harness's end-to-end accuracy pin.
func TestInt8TierTracksFP32(t *testing.T) {
	net := int8Net(t)
	r := rng.New(41)
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		frames := spikeFrames(r, net.Cfg.Steps, []int{2, 16, 16})
		if err := net.SetTier(TierFP32); err != nil {
			t.Fatal(err)
		}
		ref := inferLogits(net, frames)
		refData := ref.Data
		refClass := ref.Argmax()

		if err := net.SetTier(TierINT8); err != nil {
			t.Fatal(err)
		}
		q := inferLogits(net, frames)
		var maxAbs, maxDiff float64
		for i := range refData {
			if a := math.Abs(float64(refData[i])); a > maxAbs {
				maxAbs = a
			}
			if d := math.Abs(float64(q.Data[i] - refData[i])); d > maxDiff {
				maxDiff = d
			}
		}
		if maxDiff > 0.15*maxAbs+0.5 {
			t.Fatalf("trial %d: INT8 logits drift %v from FP32 (max |logit| %v)", trial, maxDiff, maxAbs)
		}
		// Argmax must agree whenever FP32's decision margin exceeds the
		// drift — on this untrained net near-tied logits may flip, which
		// says nothing about the kernel; the trained-fixture accuracy pin
		// lives in the exp harness.
		top, second := -float32(math.MaxFloat32), -float32(math.MaxFloat32)
		for _, v := range refData {
			if v > top {
				top, second = v, top
			} else if v > second {
				second = v
			}
		}
		if float64(top-second) > 2*maxDiff && q.Argmax() != refClass {
			t.Fatalf("trial %d: INT8 argmax %d vs FP32 %d despite margin %v > drift %v",
				trial, q.Argmax(), refClass, top-second, maxDiff)
		}
	}
}

// The INT8 arena path must allocate nothing in the steady state, like
// the FP32 path it shadows.
func TestInt8TierZeroAllocSteadyState(t *testing.T) {
	defer tensor.SetWorkers(0)
	net := int8Net(t)
	if err := net.SetTier(TierINT8); err != nil {
		t.Fatal(err)
	}
	r := rng.New(53)
	frames := spikeFrames(r, net.Cfg.Steps, []int{2, 16, 16})
	for _, workers := range []int{1, 2} {
		tensor.SetWorkers(workers)
		net.Predict(frames) // warm shapes and scratch
		allocs := testing.AllocsPerRun(20, func() {
			net.Predict(frames)
		})
		if allocs != 0 {
			t.Errorf("steady-state INT8 Predict at %d workers allocates %v/op, want 0", workers, allocs)
		}
	}
}

// The tier is an inference-only kernel choice: an input-gradient pass on
// an INT8-tier clone, the attacks' pass, returns the FP32 gradient and
// its per-step terms bit for bit, on a pruned net too.
func TestInt8TierInputGradIsFP32(t *testing.T) {
	// A low threshold keeps every layer spiking, so the readout sees
	// activity and the INT8 kernels change the logits.
	net := DVSNet(DefaultConfig(0.25, 6), 16, 16, 11, true, rng.New(3), nil)
	randomMasks(net, rng.New(61))
	if err := net.BuildInt8Panels(); err != nil {
		t.Fatal(err)
	}
	r := rng.New(62)
	samples := make([][]*tensor.Tensor, 3)
	labels := make([]int, len(samples))
	for b := range samples {
		samples[b] = spikeFrames(r, net.Cfg.Steps, []int{2, 16, 16})
		labels[b] = b + 2
	}
	pass := func(tier PrecisionTier) (*tensor.Tensor, []*tensor.Tensor) {
		clone := net.CloneArchitecture()
		if err := clone.SetTier(tier); err != nil {
			t.Fatal(err)
		}
		ts := clone.AcquireTrainScratch()
		defer clone.ReleaseTrain(ts)
		sum := clone.InputGradSumScratch(samples, labels, ts).Clone()
		var steps []*tensor.Tensor
		for _, g := range ts.InputGradSteps() {
			steps = append(steps, g.Clone())
		}
		return sum, steps
	}
	wantSum, wantSteps := pass(TierFP32)
	gotSum, gotSteps := pass(TierINT8)
	mustMatchTensors(t, "INT8-tier input gradient", []*tensor.Tensor{wantSum}, []*tensor.Tensor{gotSum})
	mustMatchTensors(t, "INT8-tier per-step input gradients", wantSteps, gotSteps)
	// And the tier really is live on that clone: its inference differs.
	q := net.CloneArchitecture()
	if err := q.SetTier(TierINT8); err != nil {
		t.Fatal(err)
	}
	fp, i8 := inferLogits(net, samples...), inferLogits(q, samples...)
	same := true
	for i := range fp.Data {
		same = same && fp.Data[i] == i8.Data[i]
	}
	if same {
		t.Fatal("INT8 inference logits equal FP32's; the test would not notice a tier leak")
	}
}

// Panels must reflect the prune mask: a masked-out weight contributes
// nothing on the INT8 path.
func TestInt8PanelsCarryMask(t *testing.T) {
	net := DenseNet(DefaultConfig(0.5, 4), 32, 16, 5, rng.New(7))
	// Mask out every connection of the first dense layer's output 0.
	var d0 *Dense
	for _, l := range net.Layers {
		if dl, ok := l.(*Dense); ok {
			d0 = dl
			break
		}
	}
	mask := tensor.New(d0.W.Shape...)
	for i := range mask.Data {
		mask.Data[i] = 1
	}
	for i := 0; i < d0.In; i++ {
		mask.Data[i] = 0 // row 0
	}
	d0.Mask = mask
	if err := net.BuildInt8Panels(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d0.In; i++ {
		if d0.panel.Codes[i] != 0 {
			t.Fatal("masked weights must quantize to zero codes")
		}
	}
}
