package snn

import (
	"testing"

	"repro/internal/tensor"
)

func TestLIFIntegratesAndFires(t *testing.T) {
	l := NewLIF(1.0, 1.0, 4) // no leak
	in := tensor.FromSlice([]float32{0.4}, 1, 1)
	// 0.4, 0.8, 1.2 -> fire on third step
	for step := 0; step < 2; step++ {
		out := l.ForwardBatch(in, false)
		if out.Data[0] != 0 {
			t.Fatalf("fired too early at step %d", step)
		}
	}
	out := l.ForwardBatch(in, false)
	if out.Data[0] != 1 {
		t.Fatal("expected spike on third step")
	}
	// Soft reset: V = 1.2 - 1.0 = 0.2, next step 0.6 -> no spike.
	out = l.ForwardBatch(in, false)
	if out.Data[0] != 0 {
		t.Fatal("soft reset failed")
	}
}

func TestLIFLeakPreventsFiring(t *testing.T) {
	l := NewLIF(1.0, 0.5, 4)
	in := tensor.FromSlice([]float32{0.4}, 1, 1)
	// With λ=0.5 the membrane converges to 0.8 < 1.0: never fires.
	for step := 0; step < 50; step++ {
		if l.ForwardBatch(in, false).Data[0] != 0 {
			t.Fatalf("leaky neuron fired at step %d", step)
		}
	}
}

func TestLIFHighThresholdSilent(t *testing.T) {
	l := NewLIF(100, 0.9, 4)
	in := tensor.FromSlice([]float32{1}, 1, 1)
	for step := 0; step < 20; step++ {
		if l.ForwardBatch(in, false).Data[0] != 0 {
			t.Fatal("neuron fired despite huge threshold")
		}
	}
	if l.StatSpikes != 0 {
		t.Fatal("stat spikes should be zero")
	}
}

func TestLIFStats(t *testing.T) {
	l := NewLIF(0.5, 1.0, 4)
	in := tensor.FromSlice([]float32{1, 0}, 1, 2)
	for step := 0; step < 4; step++ {
		l.ForwardBatch(in, false)
	}
	if l.StatSteps != 4 || l.StatUnits != 2 {
		t.Fatalf("steps=%d units=%d", l.StatSteps, l.StatUnits)
	}
	// Neuron 0 fires every step (1 >= 0.5 immediately).
	if l.MeanSpikesPerStep() != 1 {
		t.Fatalf("mean spikes per step = %v, want 1", l.MeanSpikesPerStep())
	}
	l.ResetStats()
	if l.StatSpikes != 0 || l.StatSteps != 0 {
		t.Fatal("ResetStats incomplete")
	}
}

func TestLIFResetClearsMembrane(t *testing.T) {
	l := NewLIF(1.0, 1.0, 4)
	in := tensor.FromSlice([]float32{0.9}, 1, 1)
	l.ForwardBatch(in, false)
	l.Reset()
	// After reset the membrane restarts from zero: 0.9 < 1.0, no spike.
	if l.ForwardBatch(in, false).Data[0] != 0 {
		t.Fatal("membrane survived Reset")
	}
}

func TestLIFBackwardRequiresCache(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for BackwardBatch without ForwardBatch")
		}
	}()
	NewLIF(1, 1, 4).BackwardBatch(tensor.New(1, 1))
}

func TestLIFSurrogatePeaksAtThreshold(t *testing.T) {
	l := NewLIF(1.0, 1.0, 4)
	grad := tensor.FromSlice([]float32{1, 1, 1}, 1, 3)
	// Three neurons at membrane 0.2, 1.0, 1.8: surrogate is largest at
	// the threshold.
	in := tensor.FromSlice([]float32{0.2, 1.0, 1.8}, 1, 3)
	l.ForwardBatch(in, true)
	g := l.BackwardBatch(grad)
	if !(g.Data[1] > g.Data[0] && g.Data[1] > g.Data[2]) {
		t.Fatalf("surrogate not peaked at threshold: %v", g.Data)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := &Flatten{}
	x := tensor.New(1, 2, 3, 4)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	y := f.ForwardBatch(x, true)
	if y.Rank() != 2 || y.Dim(0) != 1 || y.Dim(1) != 24 {
		t.Fatalf("flatten shape %v", y.Shape)
	}
	g := f.BackwardBatch(y)
	if g.Rank() != 4 || g.Dim(0) != 1 || g.Dim(1) != 2 || g.Dim(2) != 3 || g.Dim(3) != 4 {
		t.Fatalf("unflatten shape %v", g.Shape)
	}
}
