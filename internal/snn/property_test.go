package snn

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Property tests on the substrate's core invariants (testing/quick).

// LIF outputs are always exactly 0 or 1 regardless of input.
func TestPropLIFOutputsBinary(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		l := NewLIF(0.2+r.Float32()*2, 0.5+r.Float32()*0.5, 4)
		x := tensor.New(1, 16)
		for step := 0; step < 10; step++ {
			for i := range x.Data {
				x.Data[i] = r.NormFloat32() * 2
			}
			out := l.ForwardBatch(x, false)
			for _, v := range out.Data {
				if v != 0 && v != 1 {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Forward passes are deterministic: same weights + same frames = same
// logits, repeatedly (state must be fully reset between samples).
func TestPropForwardDeterministic(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		net := DenseNet(DefaultConfig(0.3+r.Float32(), 4), 12, 10, 3, r)
		frames := make([]*tensor.Tensor, 4)
		for i := range frames {
			f := tensor.New(12)
			for j := range f.Data {
				f.Data[j] = r.Float32()
			}
			frames[i] = f
		}
		a := forwardOne(net, frames, false)
		b := forwardOne(net, frames, false)
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// A pruning mask of all ones must not change the forward pass, and a
// mask of all zeros must yield bias-only logits.
func TestPropMaskSemantics(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		net := DenseNet(DefaultConfig(0.5, 3), 8, 6, 3, r)
		frames := []*tensor.Tensor{tensor.New(8)}
		for j := range frames[0].Data {
			frames[0].Data[j] = r.Float32()
		}
		base := forwardOne(net, frames, false)

		d := net.Layers[1].(*Dense)
		ones := tensor.New(d.W.Shape...)
		ones.Fill(1)
		d.Mask = ones
		withOnes := forwardOne(net, frames, false)
		for i := range base.Data {
			if base.Data[i] != withOnes.Data[i] {
				return false
			}
		}
		d.Mask = tensor.New(d.W.Shape...) // all zeros
		zeroed := forwardOne(net, frames, false)
		// First dense layer dead: downstream sees only its bias. The
		// forward must still run and produce finite logits.
		for _, v := range zeroed.Data {
			if v != v { // NaN
				return false
			}
		}
		d.Mask = nil
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Surrogate input gradients are finite for arbitrary finite inputs.
func TestPropGradientsFinite(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		net := DenseNet(DefaultConfig(0.4, 4), 10, 8, 3, r)
		frames := make([]*tensor.Tensor, 4)
		for i := range frames {
			f := tensor.New(10)
			for j := range f.Data {
				f.Data[j] = r.NormFloat32()
			}
			frames[i] = f
		}
		clone := net.CloneArchitecture()
		ts := clone.AcquireTrainScratch()
		defer clone.ReleaseTrain(ts)
		clone.InputGradSumScratch([][]*tensor.Tensor{frames}, []int{int(seed % 3)}, ts)
		for _, g := range ts.InputGradSteps() {
			for _, v := range g.Data {
				if v != v || v > 1e10 || v < -1e10 {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Serialization round-trips arbitrary trained states bit-exactly.
func TestPropSaveLoadBitExact(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		a := DenseNet(DefaultConfig(0.1+r.Float32()*2, 1+int(seed%8)), 6, 5, 2, r)
		var buf bytes.Buffer
		if err := a.Save(&buf); err != nil {
			return false
		}
		b := DenseNet(DefaultConfig(9, 9), 6, 5, 2, rng.New(seed+1))
		if err := b.Load(&buf); err != nil {
			return false
		}
		pa, pb := a.Params(), b.Params()
		for i := range pa {
			for j := range pa[i].Data {
				if pa[i].Data[j] != pb[i].Data[j] {
					return false
				}
			}
		}
		return b.Cfg == a.Cfg
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
