package attack

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/encoding"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// perturbBatchReference replicates the pre-arena PerturbBatch inner
// loop — allocating StackFrames + InputGradientBatch +
// SumFrameGradients per iteration — so the arena-backed implementation
// can be pinned against the seed behaviour bit-for-bit.
func perturbBatchReference(g *Gradient, model *snn.Network, imgs []*tensor.Tensor, labels []int, r *rng.RNG) []*tensor.Tensor {
	batch := len(imgs)
	rngs := make([]*rng.RNG, batch)
	for i := range rngs {
		rngs[i] = r.Split()
	}
	alpha := g.Alpha
	if alpha == 0 {
		if g.RandomStart {
			alpha = 2.5 * g.Eps / float64(g.Steps)
		} else {
			alpha = g.Eps / float64(g.Steps)
		}
	}
	advs := make([]*tensor.Tensor, batch)
	for i, img := range imgs {
		advs[i] = img.Clone()
		if g.RandomStart {
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
	for it := 0; it < g.Steps; it++ {
		for i := range advs {
			samples[i] = g.Encoder.Encode(advs[i], model.Cfg.Steps, rngs[i])
		}
		dir := float32(alpha)
		if g.Target >= 0 {
			dir = float32(-alpha)
			for i := range lossLabels {
				lossLabels[i] = g.Target
			}
		} else {
			copy(lossLabels, labels)
		}
		frames := snn.StackFrames(samples, model.Cfg.Steps)
		grad := encoding.SumFrameGradients(snn.InputGradientBatch(model, frames, lossLabels))
		for i, adv := range advs {
			gi := tensor.FromSlice(grad.Data[i*per:(i+1)*per], adv.Shape...)
			gi.Sign()
			adv.AddScaled(dir, gi)
			projectLinf(adv, imgs[i], g.Eps)
			adv.Clamp(0, 1)
		}
	}
	return advs
}

// TestPerturbBatchArenaMatchesReference pins the arena-backed
// PerturbBatch to the allocating seed path for PGD, BIM and a targeted
// variant, on both dense and convolutional surrogates.
func TestPerturbBatchArenaMatchesReference(t *testing.T) {
	cfg := snn.DefaultConfig(0.5, 5)
	nets := map[string]*snn.Network{
		"dense": snn.DenseNet(cfg, 144, 24, 10, rng.New(31)),
		"conv":  snn.MNISTNet(cfg, 1, 12, 12, true, rng.New(32)),
	}
	attacks := map[string]*Gradient{
		"pgd":      PGD(0.3),
		"bim":      BIM(0.2),
		"targeted": TargetedPGD(0.3, 4),
	}
	for _, a := range attacks {
		a.Steps = 3
		a.Encoder = encoding.Rate{}
	}
	r := rng.New(33)
	imgs := make([]*tensor.Tensor, 5)
	labels := make([]int, len(imgs))
	for i := range imgs {
		imgs[i] = tensor.New(1, 12, 12)
		for j := range imgs[i].Data {
			imgs[i].Data[j] = r.Float32()
		}
		labels[i] = i % 10
	}
	dense2d := make([]*tensor.Tensor, len(imgs))
	for i, img := range imgs {
		dense2d[i] = img.Reshape(12, 12)
	}
	for netName, net := range nets {
		batch := imgs
		if netName == "dense" {
			batch = dense2d
		}
		for atkName, atk := range attacks {
			want := perturbBatchReference(atk, net, batch, labels, rng.New(55))
			got := atk.PerturbBatch(net, batch, labels, rng.New(55))
			for i := range want {
				for j := range want[i].Data {
					if got[i].Data[j] != want[i].Data[j] {
						t.Fatalf("%s/%s sample %d pixel %d: %v, want %v (arena crafting must be bit-identical)",
							netName, atkName, i, j, got[i].Data[j], want[i].Data[j])
					}
				}
			}
		}
	}
}

// TestGradientPerturbSetWorkerInvariance pins PerturbSet's sample-level
// fan-out: PGD with a random start must craft bit-identical images at
// every worker count, equal to PerturbBatch run over craftChunk-sample
// chunks from the same RNG, under the stochastic Rate encoder and under
// Direct, whose image goes in as one static frame. 37 samples split
// unevenly at every block size, and blocks reuse the gradient passes of
// blocks that finished.
func TestGradientPerturbSetWorkerInvariance(t *testing.T) {
	for _, enc := range []encoding.Encoder{encoding.Rate{}, encoding.Direct{}} {
		t.Run(enc.Name(), func(t *testing.T) { checkPerturbSetWorkerInvariance(t, enc) })
	}
}

func checkPerturbSetWorkerInvariance(t *testing.T, enc encoding.Encoder) {
	defer tensor.SetWorkers(0)
	net := snn.MNISTNet(snn.DefaultConfig(0.5, 5), 1, 12, 12, true, rng.New(34))
	dcfg := dataset.DefaultSynthConfig()
	dcfg.H, dcfg.W = 12, 12
	set := dataset.GenerateSynth(37, dcfg, 35)
	atk := PGD(0.3)
	atk.Steps = 3
	atk.Encoder = enc

	tensor.SetWorkers(1)
	r := rng.New(56)
	var want []*tensor.Tensor
	for b := 0; b < set.Len(); b += craftChunk {
		end := min(b+craftChunk, set.Len())
		imgs := make([]*tensor.Tensor, 0, end-b)
		labels := make([]int, 0, end-b)
		for _, s := range set.Samples[b:end] {
			imgs = append(imgs, s.Image)
			labels = append(labels, s.Label)
		}
		want = append(want, atk.PerturbBatch(net, imgs, labels, r)...)
	}
	for _, workers := range []int{1, 2, 4} {
		tensor.SetWorkers(workers)
		got := atk.PerturbSet(net, set, rng.New(56))
		for i, s := range got.Samples {
			for j, v := range s.Image.Data {
				if v != want[i].Data[j] {
					t.Fatalf("%d workers: sample %d pixel %d = %v, want %v (must be bit-identical)",
						workers, i, j, v, want[i].Data[j])
				}
			}
		}
	}
}

// TestGradPoolLendsEachPassToOneBlock checks PerturbSet's free list:
// a parked pass is handed out again rather than a new one made, but
// only once, and under concurrent blocks no pass is ever lent to two
// at once.
func TestGradPoolLendsEachPassToOneBlock(t *testing.T) {
	defer tensor.SetWorkers(0)
	pool := gradPool{model: snn.DenseNet(snn.DefaultConfig(0.5, 2), 4, 4, 2, rng.New(1))}
	a := pool.get()
	pool.put(a)
	b, c := pool.get(), pool.get()
	if b != a {
		t.Fatal("a parked pass was not reused")
	}
	if c == a {
		t.Fatal("a parked pass was lent twice")
	}
	pool.put(b)
	pool.put(c)

	tensor.SetWorkers(4)
	var mu sync.Mutex
	lent := map[*gradPass]bool{}
	var passes sync.Map
	tensor.ParallelFor(64, 1, func(lo, hi int) {
		p := pool.get()
		defer pool.put(p)
		passes.Store(p, true)
		mu.Lock()
		twice := lent[p]
		lent[p] = true
		mu.Unlock()
		if twice {
			t.Error("a pass was lent to two blocks at once")
		}
		runtime.Gosched()
		mu.Lock()
		lent[p] = false
		mu.Unlock()
	})
	made := 0
	passes.Range(func(any, any) bool { made++; return true })
	if made > max(2, tensor.Workers()) {
		t.Errorf("64 blocks on %d workers used %d passes, want at most one per block in flight", tensor.Workers(), made)
	}
	pool.release()
	if len(pool.free) != 0 {
		t.Errorf("release left %d passes parked", len(pool.free))
	}
}
