package attack

import (
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dvs"
	"repro/internal/encoding"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// gestureModelAndSet builds a random-weight DVS classifier and a small
// gesture set — the gradient probes exercise the full pipeline without
// training cost.
func gestureModelAndSet(n int, seed uint64) (*snn.Network, *dvs.Set) {
	gcfg := dvs.DefaultGestureConfig()
	gcfg.Duration = 200 // keep the Sparse probes fast
	set := dvs.GenerateGestureSet(n, gcfg, seed)
	net := snn.DVSNet(snn.DefaultConfig(1.0, 6), gcfg.H, gcfg.W, dvs.GestureClasses, true, rng.New(seed+1), nil)
	return net, set
}

// setAttacks returns the three neuromorphic attacks with budgets small
// enough for tests.
func setAttacks() []StreamAttack {
	sparse := NewSparse()
	sparse.MaxIter = 3
	sparse.EventsPerIter = 16
	frame := NewFrame()
	frame.Thickness = 2
	return []StreamAttack{sparse, frame, NewCorner()}
}

func streamsExactlyEqual(a, b *dvs.Stream) bool {
	if a.W != b.W || a.H != b.H || a.Duration != b.Duration || len(a.Events) != len(b.Events) {
		return false
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			return false
		}
	}
	return true
}

// sortedEvents returns the stream's events in a canonical total order,
// for order-insensitive comparison.
func sortedEvents(s *dvs.Stream) []dvs.Event {
	ev := append([]dvs.Event(nil), s.Events...)
	sort.Slice(ev, func(i, j int) bool {
		a, b := ev[i], ev[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		if a.X != b.X {
			return a.X < b.X
		}
		return a.P < b.P
	})
	return ev
}

func streamsSameEvents(a, b *dvs.Stream) bool {
	if a.W != b.W || a.H != b.H || a.Duration != b.Duration || len(a.Events) != len(b.Events) {
		return false
	}
	ea, eb := sortedEvents(a), sortedEvents(b)
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return true
}

// TestPerturbSetMatchesLoopedSerial pins the batch APIs to the serial
// reference: with one worker, PerturbSet must reproduce looping Perturb
// bit-identically, events in the same order.
func TestPerturbSetMatchesLoopedSerial(t *testing.T) {
	tensor.SetWorkers(1)
	defer tensor.SetWorkers(0)
	net, set := gestureModelAndSet(5, 21)
	for _, atk := range setAttacks() {
		want := make([]*dvs.Stream, set.Len())
		for i, sm := range set.Samples {
			want[i] = atk.Perturb(net, sm.Stream, sm.Label)
		}
		got := atk.PerturbSet(net, set)
		if got.Len() != set.Len() || got.W != set.W || got.H != set.H || got.Classes != set.Classes {
			t.Fatalf("%s: set metadata mangled", atk.Name())
		}
		for i := range want {
			if got.Samples[i].Label != set.Samples[i].Label {
				t.Fatalf("%s sample %d: label changed", atk.Name(), i)
			}
			if !streamsExactlyEqual(want[i], got.Samples[i].Stream) {
				t.Fatalf("%s sample %d: batched stream differs from serial Perturb", atk.Name(), i)
			}
		}
	}
}

// TestPerturbSetWorkerEquivalence pins that fanning out over N workers
// yields the same event sets as the single-worker run.
func TestPerturbSetWorkerEquivalence(t *testing.T) {
	defer tensor.SetWorkers(0)
	net, set := gestureModelAndSet(6, 22)
	for _, atk := range setAttacks() {
		tensor.SetWorkers(1)
		base := atk.PerturbSet(net, set)
		for _, w := range []int{3, 8} {
			tensor.SetWorkers(w)
			got := atk.PerturbSet(net, set)
			for i := range base.Samples {
				if !streamsSameEvents(base.Samples[i].Stream, got.Samples[i].Stream) {
					t.Fatalf("%s sample %d: %d workers changed the crafted events", atk.Name(), i, w)
				}
			}
		}
	}
}

// TestPerturbSetDoesNotMutateInput: crafting must leave the source set
// untouched (the designer reuses it for clean evaluation).
func TestPerturbSetDoesNotMutateInput(t *testing.T) {
	net, set := gestureModelAndSet(3, 23)
	orig := set.Clone()
	for _, atk := range setAttacks() {
		atk.PerturbSet(net, set)
	}
	for i := range orig.Samples {
		if !streamsExactlyEqual(orig.Samples[i].Stream, set.Samples[i].Stream) {
			t.Fatalf("sample %d mutated by PerturbSet", i)
		}
	}
}

// TestSparsePerturbDeterminism: the gradient-guided attack consumes no
// RNG, so repeated runs — at any kernel worker count — must reproduce
// the identical stream.
func TestSparsePerturbDeterminism(t *testing.T) {
	defer tensor.SetWorkers(0)
	net, set := gestureModelAndSet(1, 24)
	atk := NewSparse()
	atk.MaxIter = 4
	var base *dvs.Stream
	for _, w := range []int{1, 1, 4, 4} {
		tensor.SetWorkers(w)
		adv := atk.Perturb(net, set.Samples[0].Stream, set.Samples[0].Label)
		if base == nil {
			base = adv
			continue
		}
		if !streamsExactlyEqual(base, adv) {
			t.Fatalf("Sparse.Perturb not reproducible at %d workers", w)
		}
	}
}

// TestUniversalComputeDeterminism: with a seeded RNG the universal
// perturbation must be bit-identical across runs and worker counts,
// both for deterministic and stochastic encoders (the per-sample RNG
// pre-split is what worker scheduling must not reorder).
func TestUniversalComputeDeterminism(t *testing.T) {
	defer tensor.SetWorkers(0)
	r := rng.New(31)
	cfg := snn.DefaultConfig(0.5, 5)
	net := snn.MNISTNet(cfg, 1, 12, 12, true, r)
	dcfg := dataset.DefaultSynthConfig()
	dcfg.H, dcfg.W = 12, 12
	set := dataset.GenerateSynth(24, dcfg, 32)

	for _, enc := range []encoding.Encoder{encoding.Direct{}, encoding.Rate{}} {
		u := NewUniversal(0.3)
		u.Epochs = 2
		u.Encoder = enc
		var base *tensor.Tensor
		for _, w := range []int{1, 1, 4} {
			tensor.SetWorkers(w)
			delta := u.Compute(net, set, rng.New(9))
			if base == nil {
				base = delta
				continue
			}
			for i := range base.Data {
				if base.Data[i] != delta.Data[i] {
					t.Fatalf("%s: delta[%d] differs at %d workers: %v vs %v",
						enc.Name(), i, w, delta.Data[i], base.Data[i])
				}
			}
		}
		if base.LInfNorm() == 0 {
			t.Fatalf("%s: determinism test vacuous, delta identically zero", enc.Name())
		}
	}
}

// sparseReference is Sparse.Perturb for Steps at least the model's,
// with a fresh clone and arena for every iteration's gradients
// (freshInputGrads): each iteration takes the per-step gradients at a
// batch of one and ranks frame t by step t's gradient.
func sparseReference(s *Sparse, model *snn.Network, stream *dvs.Stream, label int) *dvs.Stream {
	steps := s.Steps
	if steps == 0 {
		steps = model.Cfg.Steps
	}
	adv := stream.Clone()
	binW := adv.Duration / float64(steps)
	type cell struct {
		t, ch, y, x int
		score       float64
		add         bool
	}
	for it := 0; it < s.MaxIter; it++ {
		frames := adv.Voxelize(steps)
		if model.Predict(frames) != label {
			return adv
		}
		_, stepGrads := freshInputGrads(model, [][]*tensor.Tensor{frames}, []int{label})
		var cells []cell
		for t, g := range stepGrads {
			f := frames[t]
			for ch := 0; ch < 2; ch++ {
				for y := 0; y < stream.H; y++ {
					for x := 0; x < stream.W; x++ {
						idx := (ch*stream.H+y)*stream.W + x
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
				adv.Events = append(adv.Events, dvs.Event{X: c.x, Y: c.y, P: p, T: (float64(c.t) + 0.5) * binW})
			} else {
				removeEventsAt(adv, c.x, c.y, p, float64(c.t)*binW, float64(c.t+1)*binW)
			}
		}
		adv.Sort()
	}
	return adv
}

// labelAsPredicted relabels every sample with the model's clean
// prediction on steps voxel frames, so a random-weight model starts out
// correct at that depth and Sparse takes gradients instead of returning
// at once.
func labelAsPredicted(net *snn.Network, set *dvs.Set, steps int) {
	for i := range set.Samples {
		set.Samples[i].Label = net.Predict(set.Samples[i].Stream.Voxelize(steps))
	}
}

// TestSparseMatchesReference pins Sparse on the input-only arena pass
// to its allocating predecessor, event for event, with the default
// voxelization depth (Steps 0), an explicit one equal to the model's,
// and removal on.
func TestSparseMatchesReference(t *testing.T) {
	net, set := gestureModelAndSet(3, 26)
	labelAsPredicted(net, set, net.Cfg.Steps)
	for _, atk := range []*Sparse{
		{MaxIter: 3, EventsPerIter: 16},
		{MaxIter: 3, EventsPerIter: 16, Steps: net.Cfg.Steps},
		{MaxIter: 3, EventsPerIter: 16, AllowRemoval: true},
	} {
		for i, s := range set.Samples {
			want := sparseReference(atk, net, s.Stream, s.Label)
			got := atk.Perturb(net, s.Stream, s.Label)
			if len(want.Events) == len(s.Stream.Events) {
				t.Fatalf("%+v sample %d: the reference changed no event; the comparison is vacuous", *atk, i)
			}
			if !streamsExactlyEqual(want, got) {
				t.Fatalf("%+v sample %d: %d events, want %d (must match the allocating reference exactly)",
					*atk, i, len(got.Events), len(want.Events))
			}
		}
	}
}

// TestSparseStepsOtherThanModel covers voxelization depths that differ
// from the model's time steps. With fewer frames (Steps 4 on an 8-step
// net) the last frame feeds steps 3..7 and takes their summed gradient;
// this used to index past the frame list and panic. With more frames
// (Steps 12) frames 8..11 are never seen, so no event lands in them.
func TestSparseStepsOtherThanModel(t *testing.T) {
	_, set := gestureModelAndSet(2, 27)
	net := snn.DVSNet(snn.DefaultConfig(1.0, 8), set.W, set.H, dvs.GestureClasses, true, rng.New(28), nil)
	for _, steps := range []int{4, 12} {
		labelAsPredicted(net, set, steps)
		atk := &Sparse{MaxIter: 3, EventsPerIter: 16, Steps: steps}
		for i, s := range set.Samples {
			adv := atk.Perturb(net, s.Stream, s.Label)
			if err := adv.Validate(); err != nil {
				t.Fatalf("Steps %d sample %d: %v", steps, i, err)
			}
			if len(adv.Events) <= len(s.Stream.Events) {
				t.Fatalf("Steps %d sample %d: no event injected", steps, i)
			}
			// Frames from index net.Cfg.Steps on start at this time.
			unseen := adv.Duration * float64(net.Cfg.Steps) / float64(steps)
			if a, c := eventsFrom(adv, unseen), eventsFrom(s.Stream, unseen); a != c {
				t.Fatalf("Steps %d sample %d: %d events from t=%v, want the clean %d (frames the model never sees)",
					steps, i, a, unseen, c)
			}
		}
	}
}

// eventsFrom counts the events of s at or after t.
func eventsFrom(s *dvs.Stream, t float64) int {
	n := 0
	for _, e := range s.Events {
		if e.T >= t {
			n++
		}
	}
	return n
}

// TestFoldFrameGrads pins the per-step to per-frame fold Sparse ranks
// by, for fewer, as many and more frames than steps.
func TestFoldFrameGrads(t *testing.T) {
	steps := make([]*tensor.Tensor, 5)
	for i := range steps {
		steps[i] = tensor.FromSlice([]float32{float32(i + 1), float32(10 * (i + 1))}, 2)
	}
	check := func(frames int, want [][]float32) {
		t.Helper()
		dst := foldFrameGrads(frames, steps)
		for f, w := range want {
			switch {
			case w == nil && dst[f] != nil:
				t.Fatalf("%d frames: frame %d has a gradient, want none", frames, f)
			case w != nil && (dst[f] == nil || dst[f].Data[0] != w[0] || dst[f].Data[1] != w[1]):
				t.Fatalf("%d frames: frame %d = %v, want %v", frames, f, dst[f], w)
			}
		}
	}
	check(3, [][]float32{{1, 10}, {2, 20}, {3 + 4 + 5, 30 + 40 + 50}})
	check(5, [][]float32{{1, 10}, {2, 20}, {3, 30}, {4, 40}, {5, 50}})
	check(7, [][]float32{{1, 10}, {2, 20}, {3, 30}, {4, 40}, {5, 50}, nil, nil})
	if steps[2].Data[0] != 3 {
		t.Fatal("the fold must not write into the step gradients")
	}
}
