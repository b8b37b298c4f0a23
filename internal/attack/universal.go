package attack

import (
	"repro/internal/dataset"
	"repro/internal/encoding"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// Universal computes a single input-agnostic l∞-bounded perturbation
// that degrades the model on as many samples as possible
// (Moosavi-Dezfooli et al.'s universal adversarial perturbations,
// adapted to the SNN's straight-through input gradients). A universal
// perturbation is the strongest practical threat for an edge deployment:
// it can be baked into a sticker or a sensor bias, needing no per-input
// computation.
type Universal struct {
	Eps     float64 // l∞ bound on the universal perturbation
	Alpha   float64 // per-sample gradient step (0 ⇒ Eps/8)
	Epochs  int     // passes over the crafting set
	Encoder encoding.Encoder
}

// NewUniversal returns a UAP attack with budget eps.
func NewUniversal(eps float64) *Universal {
	return &Universal{Eps: eps, Epochs: 3, Encoder: encoding.Direct{}}
}

// Name identifies the attack.
func (u *Universal) Name() string { return "UAP" }

// Compute crafts the universal perturbation against model using the
// given crafting set. The returned tensor has the sample image shape.
//
// Each epoch splits into two phases. The misclassification scan —
// which samples the current delta already fools, i.e. where budget
// should not be spent — evaluates every sample against the delta
// frozen at epoch start, fanned out over the shared tensor worker pool
// on weight-sharing model clones. The gradient ascent then walks the
// still-correct samples serially, because each delta update feeds the
// next sample's gradient (the algorithm's sequential core). Each of
// its gradients is a batch of one through the arena's
// input-gradient pass, on one clone made at the first gradient. Freezing
// the scan at the epoch boundary is what makes the scan parallel; it
// only defers "already fooled" credit by at most one epoch. Encoder
// randomness is pre-split per (epoch, sample, phase) and the kernels
// are serial, so the result is deterministic for a given seed and
// bit-identical at any worker count.
func (u *Universal) Compute(model *snn.Network, set *dataset.Set, r *rng.RNG) *tensor.Tensor {
	if set.Len() == 0 {
		return nil
	}
	alpha := u.Alpha
	if alpha == 0 {
		alpha = u.Eps / 8
	}
	n := set.Len()
	delta := tensor.New(set.Samples[0].Image.Shape...)
	still := make([]bool, n)
	scanR := make([]*rng.RNG, n)
	stepR := make([]*rng.RNG, n)
	grads := gradPass{model: model}
	defer grads.release()
	for epoch := 0; epoch < u.Epochs; epoch++ {
		for i := 0; i < n; i++ {
			scanR[i] = r.Split()
			stepR[i] = r.Split()
		}
		frozen := delta.Clone()
		tensor.ParallelFor(n, cloneGrain(n), func(lo, hi int) {
			m := model.CloneArchitecture()
			for i := lo; i < hi; i++ {
				s := set.Samples[i]
				x := s.Image.Clone().Add(frozen)
				x.Clamp(0, 1)
				frames := u.Encoder.Encode(x, m.Cfg.Steps, scanR[i])
				still[i] = m.Predict(frames) == s.Label
			}
		})
		for i, s := range set.Samples {
			if !still[i] {
				continue // already fooled at epoch start; spend budget elsewhere
			}
			x := s.Image.Clone().Add(delta)
			x.Clamp(0, 1)
			frames := u.Encoder.Encode(x, model.Cfg.Steps, stepR[i])
			g := grads.single(frames, s.Label)
			g.Sign()
			delta.AddScaled(float32(alpha), tensor.FromSlice(g.Data, delta.Shape...))
			delta.Clamp(float32(-u.Eps), float32(u.Eps))
		}
	}
	return delta
}

// Apply returns a copy of img shifted by delta and clipped to [0,1].
func (u *Universal) Apply(img, delta *tensor.Tensor) *tensor.Tensor {
	out := img.Clone()
	out.Add(delta)
	out.Clamp(0, 1)
	return out
}

// PerturbSet applies a computed delta to every sample of a set.
func (u *Universal) PerturbSet(set *dataset.Set, delta *tensor.Tensor) *dataset.Set {
	out := set.Clone()
	for i := range out.Samples {
		out.Samples[i].Image = u.Apply(out.Samples[i].Image, delta)
	}
	return out
}
