package attack

import (
	"sort"

	"repro/internal/dvs"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// Neuromorphic attacks operate on raw event streams. Both follow
// DVS-Attacks (Marchisio et al., IJCNN 2021 — the paper's [6]).

// Sparse is the stealthy gradient-guided event attack: it iteratively
// injects (or deletes) a small number of events at the spatio-temporal
// positions where the true-label loss gradient is steepest, until the
// surrogate model misclassifies or the budget is exhausted. It ranks
// the cells of every voxel frame by that frame's own gradient, which
// the arena's input-gradient pass yields per time step.
type Sparse struct {
	// MaxIter bounds the greedy iterations.
	MaxIter int
	// EventsPerIter is how many event cells are flipped per iteration.
	EventsPerIter int
	// Steps is the voxelization depth used to probe the model; 0 means
	// the model's configured time steps. The model reads frame
	// min(t, Steps−1) at step t, so with fewer frames than model steps
	// the last frame is shown to the remaining steps, and with more the
	// extra frames are never seen and never perturbed.
	Steps int
	// AllowRemoval also lets the attack delete genuine events. The
	// default (false) matches DVS-Attacks' injection-style perturbation:
	// the attack stays stealthy and, importantly, remains *undoable* by
	// event filtering — deleted signal can never be restored.
	AllowRemoval bool
}

// NewSparse returns the sparse attack with the defaults used by the
// experiments.
func NewSparse() *Sparse { return &Sparse{MaxIter: 40, EventsPerIter: 48} }

// Name identifies the attack.
func (s *Sparse) Name() string { return "Sparse" }

// Perturb crafts an adversarial event stream against the surrogate model.
func (s *Sparse) Perturb(model *snn.Network, stream *dvs.Stream, label int) *dvs.Stream {
	steps := s.Steps
	if steps == 0 {
		steps = model.Cfg.Steps
	}
	adv := stream.Clone()
	binW := adv.Duration / float64(steps)
	grads := gradPass{model: model}
	defer grads.release()

	for it := 0; it < s.MaxIter; it++ {
		frames := adv.Voxelize(steps)
		if model.Predict(frames) != label {
			return adv // already fooled
		}
		grads.single(frames, label)
		frameGrads := foldFrameGrads(steps, grads.ts.InputGradSteps())

		// Rank cells by |gradient| where flipping moves the input along
		// the ascent direction: grad > 0 on an empty cell (add events)
		// or grad < 0 on an occupied cell (remove events).
		type cell struct {
			t, ch, y, x int
			score       float64
			add         bool
		}
		var cells []cell
		h, w := stream.H, stream.W
		for t, g := range frameGrads {
			if g == nil {
				continue // a frame the model never sees
			}
			f := frames[t]
			for ch := 0; ch < 2; ch++ {
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						idx := (ch*h+y)*w + x
						gv := float64(g.Data[idx])
						occupied := f.Data[idx] != 0
						switch {
						case gv > 0 && !occupied:
							cells = append(cells, cell{t, ch, y, x, gv, true})
						case gv < 0 && occupied && s.AllowRemoval:
							cells = append(cells, cell{t, ch, y, x, -gv, false})
						}
					}
				}
			}
		}
		if len(cells) == 0 {
			return adv
		}
		sort.Slice(cells, func(i, j int) bool { return cells[i].score > cells[j].score })
		if len(cells) > s.EventsPerIter {
			cells = cells[:s.EventsPerIter]
		}
		for _, c := range cells {
			p := int8(1)
			if c.ch == 1 {
				p = -1
			}
			if c.add {
				adv.Events = append(adv.Events, dvs.Event{
					X: c.x, Y: c.y, P: p,
					T: (float64(c.t) + 0.5) * binW,
				})
			} else {
				removeEventsAt(adv, c.x, c.y, p, float64(c.t)*binW, float64(c.t+1)*binW)
			}
		}
		adv.Sort()
	}
	return adv
}

// foldFrameGrads folds the per-step input gradients of a forward that
// fed frame min(t, frames−1) at step t into per-frame gradients: frame
// f below the last takes step f's gradient, the last frame the sum over
// every step t ≥ frames−1 in ascending t, and a frame no step reads
// gets nil. Single terms alias the step tensors.
func foldFrameGrads(frames int, steps []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, frames)
	copy(out, steps)
	if frames < len(steps) {
		sum := steps[frames-1].Clone()
		for _, g := range steps[frames:] {
			sum.Add(g)
		}
		out[frames-1] = sum
	}
	return out
}

// removeEventsAt deletes events at pixel (x,y) with polarity p inside
// [t0,t1).
func removeEventsAt(s *dvs.Stream, x, y int, p int8, t0, t1 float64) {
	kept := s.Events[:0]
	for _, e := range s.Events {
		if e.X == x && e.Y == y && e.P == p && e.T >= t0 && e.T < t1 {
			continue
		}
		kept = append(kept, e)
	}
	s.Events = kept
}

// Frame is the simple boundary-flooding attack: it injects events on
// every pixel of the sensor boundary for every time bin ("attacking every
// pixel of the boundary for all the events").
type Frame struct {
	// Bins is the temporal density of injected events; 0 means one
	// injection per model time step over the recording.
	Bins int
	// Thickness of the attacked border in pixels.
	Thickness int
}

// NewFrame returns the frame attack with a 1-pixel border.
func NewFrame() *Frame { return &Frame{Thickness: 1} }

// Name identifies the attack.
func (f *Frame) Name() string { return "Frame" }

// Perturb injects the boundary events. The model is consulted only for
// its time-step count (temporal density); the attack itself is blind.
func (f *Frame) Perturb(model *snn.Network, stream *dvs.Stream, _ int) *dvs.Stream {
	bins := f.Bins
	if bins == 0 {
		bins = model.Cfg.Steps
	}
	th := f.Thickness
	if th <= 0 {
		th = 1
	}
	adv := stream.Clone()
	binW := adv.Duration / float64(bins)
	for b := 0; b < bins; b++ {
		t := (float64(b) + 0.5) * binW
		for y := 0; y < adv.H; y++ {
			for x := 0; x < adv.W; x++ {
				onBorder := x < th || y < th || x >= adv.W-th || y >= adv.H-th
				if !onBorder {
					continue
				}
				adv.Events = append(adv.Events,
					dvs.Event{X: x, Y: y, P: 1, T: t},
					dvs.Event{X: x, Y: y, P: -1, T: t},
				)
			}
		}
	}
	adv.Sort()
	return adv
}

// Corner is the corner-patch variant of the boundary attack from
// DVS-Attacks: events flood a square patch in each sensor corner rather
// than the full boundary. It is stealthier than Frame (fewer events,
// away from the centre of attention) but usually weaker.
type Corner struct {
	// Size is the corner patch edge length in pixels.
	Size int
	// Bins is the temporal density; 0 means one injection per model
	// time step.
	Bins int
}

// NewCorner returns the corner attack with 4×4 patches.
func NewCorner() *Corner { return &Corner{Size: 4} }

// Name identifies the attack.
func (c *Corner) Name() string { return "Corner" }

// Perturb injects events into the four corner patches of every time bin.
func (c *Corner) Perturb(model *snn.Network, stream *dvs.Stream, _ int) *dvs.Stream {
	bins := c.Bins
	if bins == 0 {
		bins = model.Cfg.Steps
	}
	size := c.Size
	if size <= 0 {
		size = 4
	}
	adv := stream.Clone()
	binW := adv.Duration / float64(bins)
	inCorner := func(x, y int) bool {
		nearX := x < size || x >= adv.W-size
		nearY := y < size || y >= adv.H-size
		return nearX && nearY
	}
	for b := 0; b < bins; b++ {
		t := (float64(b) + 0.5) * binW
		for y := 0; y < adv.H; y++ {
			for x := 0; x < adv.W; x++ {
				if !inCorner(x, y) {
					continue
				}
				adv.Events = append(adv.Events,
					dvs.Event{X: x, Y: y, P: 1, T: t},
					dvs.Event{X: x, Y: y, P: -1, T: t},
				)
			}
		}
	}
	adv.Sort()
	return adv
}

// StreamAttack abstracts the neuromorphic attacks for the harness: a
// per-stream Perturb and a whole-set PerturbSet that crafts every
// stream concurrently on the shared tensor worker pool.
type StreamAttack interface {
	Name() string
	Perturb(model *snn.Network, stream *dvs.Stream, label int) *dvs.Stream
	PerturbSet(model *snn.Network, set *dvs.Set) *dvs.Set
}

// streamPerturber is the single-stream half of StreamAttack, what
// PerturbStreams needs from an attack.
type streamPerturber interface {
	Perturb(model *snn.Network, stream *dvs.Stream, label int) *dvs.Stream
}

// PerturbStreams crafts an adversarial copy of every stream in a set,
// fanning the per-stream work out over the shared tensor worker pool.
// Each worker block crafts against a weight-sharing evaluation clone of
// the model, so gradient probes never contend on membrane state. Every
// stream's result depends only on (weights, stream, label) — the
// attacks consume no shared RNG, worker scheduling never reorders
// anything and the gradient kernels are serial — so the output is
// bit-identical to looping Perturb serially, at any worker count.
func PerturbStreams(atk streamPerturber, model *snn.Network, set *dvs.Set) *dvs.Set {
	out := &dvs.Set{Classes: set.Classes, W: set.W, H: set.H, Samples: make([]dvs.Sample, len(set.Samples))}
	tensor.ParallelFor(len(set.Samples), cloneGrain(len(set.Samples)), func(lo, hi int) {
		m := model.CloneArchitecture()
		for i := lo; i < hi; i++ {
			sm := set.Samples[i]
			out.Samples[i] = dvs.Sample{Stream: atk.Perturb(m, sm.Stream, sm.Label), Label: sm.Label}
		}
	})
	return out
}

// cloneGrain sizes ParallelFor blocks for loops that clone the model
// per block: ~4 blocks per worker keeps work-stealing balance (stream
// crafting cost varies wildly — Sparse exits early on fooled samples)
// without paying one CloneArchitecture per stream.
func cloneGrain(n int) int {
	g := (n + 4*tensor.Workers() - 1) / (4 * tensor.Workers())
	if g < 1 {
		g = 1
	}
	return g
}

// PerturbSet implements StreamAttack.
func (s *Sparse) PerturbSet(model *snn.Network, set *dvs.Set) *dvs.Set {
	return PerturbStreams(s, model, set)
}

// PerturbSet implements StreamAttack.
func (f *Frame) PerturbSet(model *snn.Network, set *dvs.Set) *dvs.Set {
	return PerturbStreams(f, model, set)
}

// PerturbSet implements StreamAttack.
func (c *Corner) PerturbSet(model *snn.Network, set *dvs.Set) *dvs.Set {
	return PerturbStreams(c, model, set)
}

var (
	_ StreamAttack = (*Sparse)(nil)
	_ StreamAttack = (*Frame)(nil)
	_ StreamAttack = (*Corner)(nil)
)
