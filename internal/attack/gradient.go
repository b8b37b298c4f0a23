// Package attack implements the four adversarial attacks the paper
// evaluates (§II, §III): the gradient-based l∞ attacks PGD and BIM on
// static images (plus single-step FGSM as a baseline), and the
// neuromorphic Sparse and Frame attacks on DVS event streams.
//
// Threat model (paper §III): the adversary crafts examples with the
// *accurate* classifier's gradients — it does not know the victim's
// approximation level, precision scale or structural parameters — and the
// crafted inputs transfer to the AxSNN under evaluation.
package attack

import (
	"sync"

	"repro/internal/dataset"
	"repro/internal/encoding"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// Gradient is an iterative l∞ gradient attack on pixel intensities.
// RandomStart distinguishes PGD (true) from BIM (false).
type Gradient struct {
	Eps         float64 // l∞ perturbation budget ε
	Steps       int     // iterations
	Alpha       float64 // per-step size (0 ⇒ ε/Steps·2.5 for PGD, ε/Steps for BIM)
	RandomStart bool
	Encoder     encoding.Encoder // encoding used while computing gradients

	// Target, when non-negative, switches to a targeted attack: instead
	// of maximizing the true-label loss, the attack *minimizes* the
	// loss towards Target, steering the classifier to that class.
	Target int
}

// PGD returns the projected-gradient-descent attack with budget eps.
func PGD(eps float64) *Gradient {
	return &Gradient{Eps: eps, Steps: 7, RandomStart: true, Encoder: encoding.Direct{}, Target: -1}
}

// BIM returns the basic iterative method with budget eps.
func BIM(eps float64) *Gradient {
	return &Gradient{Eps: eps, Steps: 7, RandomStart: false, Encoder: encoding.Direct{}, Target: -1}
}

// FGSM returns the single-step fast-gradient-sign baseline.
func FGSM(eps float64) *Gradient {
	return &Gradient{Eps: eps, Steps: 1, Alpha: eps, RandomStart: false, Encoder: encoding.Direct{}, Target: -1}
}

// TargetedPGD returns a PGD variant that steers inputs toward class
// target instead of merely away from the truth.
func TargetedPGD(eps float64, target int) *Gradient {
	g := PGD(eps)
	g.Target = target
	return g
}

// Name identifies the attack for reports.
func (g *Gradient) Name() string {
	switch {
	case g.Steps == 1:
		return "FGSM"
	case g.RandomStart:
		return "PGD"
	default:
		return "BIM"
	}
}

// Perturb crafts an adversarial image from img (values in [0,1]) against
// model, maximizing the true-label loss within the ε-ball. The model is
// the adversary's surrogate (the accurate SNN). r drives the random start
// and any stochastic encoding. It is PerturbBatch for a batch of one
// that draws from r itself rather than from an RNG split off it.
func (g *Gradient) Perturb(model *snn.Network, img *tensor.Tensor, label int, r *rng.RNG) *tensor.Tensor {
	grads := gradPass{model: model}
	defer grads.release()
	return g.perturbBlock(&grads, []*tensor.Tensor{img}, []int{label}, []*rng.RNG{r})[0]
}

// PerturbBatch crafts adversarial images for a whole batch in lockstep:
// every PGD/BIM iteration encodes all samples, runs one batched BPTT
// pass for the input gradients, and steps every image at once. The
// result is deterministic and independent of batch partitioning — the
// encoding RNG is split per sample up front — but the stream differs
// from calling Perturb sample-by-sample with a shared RNG.
//
// The backward pass is the arena's input-gradient pass
// (snn.Network.InputGradSumScratch) on one weight-sharing evaluation
// clone for the whole crafting session: it computes no parameter
// gradient, and frame stacking, the forward caches and the BPTT
// buffers are all reused across iterations, so the inner loop
// allocates only the encoded frames. Direct coding allocates none: its
// image goes in as one static frame, which the pass presents at every
// step. Its gradients equal the allocating InputGradientBatch chain's
// bit for bit, which the tests keep as their oracle.
func (g *Gradient) PerturbBatch(model *snn.Network, imgs []*tensor.Tensor, labels []int, r *rng.RNG) []*tensor.Tensor {
	grads := gradPass{model: model}
	defer grads.release()
	return g.perturbBlock(&grads, imgs, labels, splitRNGs(r, len(imgs)))
}

// splitRNGs splits one RNG per sample from r, in sample order.
func splitRNGs(r *rng.RNG, n int) []*rng.RNG {
	rngs := make([]*rng.RNG, n)
	for i := range rngs {
		rngs[i] = r.Split()
	}
	return rngs
}

// perturbBlock is PerturbBatch over pre-split per-sample RNGs, taking
// its gradients from grads, which the caller owns and releases.
func (g *Gradient) perturbBlock(grads *gradPass, imgs []*tensor.Tensor, labels []int, rngs []*rng.RNG) []*tensor.Tensor {
	batch := len(imgs)
	if batch == 0 {
		return nil
	}
	advs := make([]*tensor.Tensor, batch)
	if g.Eps <= 0 {
		for i, img := range imgs {
			advs[i] = img.Clone()
		}
		return advs
	}

	alpha := g.Alpha
	if alpha == 0 {
		if g.RandomStart {
			alpha = 2.5 * g.Eps / float64(g.Steps)
		} else {
			alpha = g.Eps / float64(g.Steps)
		}
	}
	for i, img := range imgs {
		advs[i] = img.Clone()
		if g.RandomStart {
			// Start inside the ball but no farther than one step: with
			// a step budget below ε (calibrated transfer attacks) a
			// full-ball start would swamp the gradient steps with noise.
			start := alpha
			if g.Eps < start {
				start = g.Eps
			}
			for j := range advs[i].Data {
				advs[i].Data[j] += float32((2*rngs[i].Float64() - 1) * start)
			}
			projectLinf(advs[i], img, g.Eps)
			advs[i].Clamp(0, 1)
		}
	}

	lossLabels := make([]int, batch)
	samples := make([][]*tensor.Tensor, batch)
	per := imgs[0].Len()
	_, static := g.Encoder.(encoding.Direct)
	for it := 0; it < g.Steps; it++ {
		for i := range advs {
			if static {
				// Direct coding repeats the image every step, which the
				// pass does with a lone frame; Encode would copy it
				// once per step.
				samples[i] = advs[i : i+1]
				continue
			}
			samples[i] = g.Encoder.Encode(advs[i], grads.model.Cfg.Steps, rngs[i])
		}
		dir := float32(alpha)
		if g.Target >= 0 {
			// Targeted: descend the loss towards the target class.
			dir = float32(-alpha)
			for i := range lossLabels {
				lossLabels[i] = g.Target
			}
		} else {
			copy(lossLabels, labels)
		}
		grad := grads.batch(samples, lossLabels) // (B, image shape...)
		for i, adv := range advs {
			// Untargeted: x ← x + α·sign(∇_x L(label)).
			// Targeted:   x ← x − α·sign(∇_x L(target)).
			gi := tensor.FromSlice(grad.Data[i*per:(i+1)*per], adv.Shape...)
			gi.Sign()
			adv.AddScaled(dir, gi)
			projectLinf(adv, imgs[i], g.Eps)
			adv.Clamp(0, 1)
		}
	}
	return advs
}

// gradPass computes input gradients through the arena's
// input-gradient pass on a weight-sharing evaluation clone of model:
// dropout stays off (clones carry no RNG) and model keeps clean state.
// The clone and its arena are made at the first gradient, so a caller
// that stops before needing one (a stream the model already
// misclassifies) pays for neither. Call release when done.
type gradPass struct {
	model *snn.Network
	clone *snn.Network
	ts    *snn.TrainScratch
}

// batch returns Σ_t dL/dframe_t, (B, sample shape...), for samples
// under labels. It lives in the arena until the next call.
func (p *gradPass) batch(samples [][]*tensor.Tensor, labels []int) *tensor.Tensor {
	if p.ts == nil {
		p.clone = p.model.CloneArchitecture()
		p.ts = p.clone.AcquireTrainScratch()
	}
	return p.clone.InputGradSumScratch(samples, labels, p.ts)
}

// single is batch for one sample's frames. The result, like the
// per-step terms p.ts.InputGradSteps() then holds, keeps a leading
// batch axis of 1.
func (p *gradPass) single(frames []*tensor.Tensor, label int) *tensor.Tensor {
	return p.batch([][]*tensor.Tensor{frames}, []int{label})
}

// release parks the arena, if one was made.
func (p *gradPass) release() {
	if p.ts != nil {
		p.clone.ReleaseTrain(p.ts)
	}
}

// gradPool lends gradPasses to the blocks PerturbSet crafts
// concurrently and takes them back, so a set grows one clone and arena
// per block in flight rather than one per block. It is a mutex-guarded
// free list rather than a bounded channel, so get never blocks,
// however many blocks run at once.
type gradPool struct {
	model *snn.Network
	mu    sync.Mutex
	free  []*gradPass //axsnn:guardedby mu
}

// get returns a parked gradPass, or a new one when none is free.
func (gp *gradPool) get() *gradPass {
	gp.mu.Lock()
	defer gp.mu.Unlock()
	if k := len(gp.free); k > 0 {
		p := gp.free[k-1]
		gp.free = gp.free[:k-1]
		return p
	}
	return &gradPass{model: gp.model}
}

// put parks p for the next block.
func (gp *gradPool) put(p *gradPass) {
	gp.mu.Lock()
	gp.free = append(gp.free, p)
	gp.mu.Unlock()
}

// release releases every parked gradPass; call it once no block runs.
func (gp *gradPool) release() {
	gp.mu.Lock()
	defer gp.mu.Unlock()
	for _, p := range gp.free {
		p.release()
	}
	gp.free = nil
}

// craftChunk is the most samples PerturbSet crafts in one batched pass.
const craftChunk = 32

// PerturbSet crafts an adversarial copy of a whole dataset against
// model. One RNG is split per sample up front, in sample order, and
// blocks of at most craftChunk/Workers() samples fan out over the
// shared worker pool, each crafting through the batched path on a
// clone and training arena no other running block uses. Blocks reuse
// the clones and arenas of blocks that finished, so a set makes one per
// block in flight. Every image depends only on its sample and its RNG,
// so the result equals PerturbBatch over craftChunk-sample chunks at
// any worker count. Dividing the block by the worker count keeps the
// live arenas at about one craftChunk-sample arena's memory.
func (g *Gradient) PerturbSet(model *snn.Network, set *dataset.Set, r *rng.RNG) *dataset.Set {
	adv := set.Clone()
	n := len(adv.Samples)
	rngs := splitRNGs(r, n)
	imgs := make([]*tensor.Tensor, n)
	labels := make([]int, n)
	for i, s := range adv.Samples {
		imgs[i], labels[i] = s.Image, s.Label
	}
	pool := gradPool{model: model}
	defer pool.release()
	tensor.ParallelFor(n, max(1, craftChunk/tensor.Workers()), func(lo, hi int) {
		grads := pool.get()
		defer pool.put(grads)
		for i, a := range g.perturbBlock(grads, imgs[lo:hi], labels[lo:hi], rngs[lo:hi]) {
			adv.Samples[lo+i].Image = a
		}
	})
	return adv
}

// projectLinf clips adv into the l∞ ε-ball around origin.
func projectLinf(adv, origin *tensor.Tensor, eps float64) {
	e := float32(eps)
	for i := range adv.Data {
		lo, hi := origin.Data[i]-e, origin.Data[i]+e
		if adv.Data[i] < lo {
			adv.Data[i] = lo
		} else if adv.Data[i] > hi {
			adv.Data[i] = hi
		}
	}
}
