package defense

import (
	"sort"
	"testing"

	"repro/internal/dvs"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// attackedStreams builds gesture streams polluted with frame-style
// boundary floods and isolated noise, so AQF has real work to do.
func attackedStreams(n int, seed uint64) []*dvs.Stream {
	cfg := dvs.DefaultGestureConfig()
	out := make([]*dvs.Stream, n)
	r := rng.New(seed)
	for i := range out {
		s := dvs.GenerateGesture(i%dvs.GestureClasses, cfg, rng.New(seed+uint64(i)))
		// Boundary flood: both polarities at the same quantized instants.
		for b := 0; b < 8; b++ {
			tm := (float64(b) + 0.5) * s.Duration / 8
			for x := 0; x < s.W; x++ {
				s.Events = append(s.Events,
					dvs.Event{X: x, Y: 0, P: 1, T: tm},
					dvs.Event{X: x, Y: 0, P: -1, T: tm})
			}
		}
		// Isolated noise events.
		for k := 0; k < 40; k++ {
			s.Events = append(s.Events, dvs.Event{
				X: r.Intn(s.W), Y: r.Intn(s.H), P: 1,
				T: r.Float64() * s.Duration,
			})
		}
		s.Sort()
		out[i] = s
	}
	return out
}

func eventsEqual(a, b *dvs.Stream) bool {
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

func canonical(s *dvs.Stream) []dvs.Event {
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

// gestureSet wraps streams in a gesture set, labelled by index.
func gestureSet(streams []*dvs.Stream) *dvs.Set {
	set := &dvs.Set{Classes: dvs.GestureClasses, W: streams[0].W, H: streams[0].H}
	for i, s := range streams {
		set.Samples = append(set.Samples, dvs.Sample{Stream: s, Label: i % 3})
	}
	return set
}

// TestFilterSetMatchesSerialAQF pins the set-level fan-out to the
// serial reference: one worker must reproduce per-stream AQF
// bit-identically, and N workers the same events in some order.
func TestFilterSetMatchesSerialAQF(t *testing.T) {
	defer tensor.SetWorkers(0)
	streams := attackedStreams(6, 51)
	set := gestureSet(streams)
	p := DefaultAQFParams(0.015)
	want := make([]*dvs.Stream, len(streams))
	for i, s := range streams {
		want[i] = AQF(s, p)
	}

	tensor.SetWorkers(1)
	got := AQFSet(set, p)
	for i := range want {
		if !eventsEqual(want[i], got.Samples[i].Stream) {
			t.Fatalf("stream %d: single-worker AQFSet differs from serial AQF", i)
		}
	}

	for _, w := range []int{3, 8} {
		tensor.SetWorkers(w)
		got := AQFSet(set, p)
		for i := range want {
			wa, ga := canonical(want[i]), canonical(got.Samples[i].Stream)
			if len(wa) != len(ga) {
				t.Fatalf("stream %d: %d workers kept %d events, want %d", i, w, len(ga), len(wa))
			}
			for j := range wa {
				if wa[j] != ga[j] {
					t.Fatalf("stream %d event %d: %d workers changed the filtered events", i, j, w)
				}
			}
		}
	}
}

// TestFilterSetActuallyFilters guards against the vacuous case: the
// attacked streams must lose events through AQFSet, or the equivalence
// test above proves nothing.
func TestFilterSetActuallyFilters(t *testing.T) {
	streams := attackedStreams(2, 52)
	for i, sm := range AQFSet(gestureSet(streams), DefaultAQFParams(0.015)).Samples {
		if f := sm.Stream; len(f.Events) == 0 || len(f.Events) >= len(streams[i].Events) {
			t.Fatalf("stream %d: filtered %d of %d events — not a meaningful filter run",
				i, len(streams[i].Events)-len(f.Events), len(streams[i].Events))
		}
	}
}

// TestBAFFilterSetWorkerInvariance: the background-activity baseline
// filter shares the pool fan-out and must be worker-count invariant.
func TestBAFFilterSetWorkerInvariance(t *testing.T) {
	defer tensor.SetWorkers(0)
	streams := attackedStreams(5, 54)
	set := &dvs.Set{Classes: dvs.GestureClasses, W: streams[0].W, H: streams[0].H}
	for i, s := range streams {
		set.Samples = append(set.Samples, dvs.Sample{Stream: s, Label: i})
	}
	baf := NewBackgroundActivityFilter()
	tensor.SetWorkers(1)
	base := baf.FilterSet(set)
	for _, w := range []int{4, 9} {
		tensor.SetWorkers(w)
		got := baf.FilterSet(set)
		for i := range base.Samples {
			if !eventsEqual(base.Samples[i].Stream, got.Samples[i].Stream) {
				t.Fatalf("sample %d: %d workers changed BAF output", i, w)
			}
		}
	}
}
