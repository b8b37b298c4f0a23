package defense

import (
	"fmt"
	"testing"

	"repro/internal/dvs"
	"repro/internal/rng"
)

// pushAll feeds s through a fresh IncrementalAQF in consecutive chunks
// produced by cut (which returns the size of the next chunk, >= 1) and
// returns the concatenated output.
func pushAll(t *testing.T, s *dvs.Stream, p AQFParams, cut func(remaining int) int) []dvs.Event {
	t.Helper()
	f, err := NewIncrementalAQF(s.W, s.H, s.Duration, p)
	if err != nil {
		t.Fatal(err)
	}
	return drive(t, f, s, cut)
}

func drive(t *testing.T, f *IncrementalAQF, s *dvs.Stream, cut func(remaining int) int) []dvs.Event {
	t.Helper()
	var out []dvs.Event
	events := s.Events
	for len(events) > 0 {
		n := cut(len(events))
		if n > len(events) {
			n = len(events)
		}
		got, err := f.Push(events[:n])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, got...)
		events = events[n:]
	}
	return append(out, f.Flush()...)
}

// timeCut returns a cut function slicing a time-sorted event list at
// multiples of windowMS — the chunking a windowed pipeline would feed.
func timeCut(events []dvs.Event, windowMS float64) func(int) int {
	total := len(events)
	return func(remaining int) int {
		pos := total - remaining
		w := int(events[pos].T / windowMS)
		n := 1
		for pos+n < total && int(events[pos+n].T/windowMS) == w {
			n++
		}
		return n
	}
}

func sameEvents(t *testing.T, name string, want, got []dvs.Event) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: kept %d events, refAQF kept %d", name, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: event %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

// fixtureStreams are the shared equivalence fixtures: clean gestures,
// pure noise, a mixed stream, and a dense same-instant burst that
// exercises the polarity rule across chunk cuts.
func fixtureStreams(t *testing.T) map[string]*dvs.Stream {
	t.Helper()
	out := map[string]*dvs.Stream{}
	cfg := dvs.DefaultGestureConfig()
	out["gesture"] = dvs.GenerateGesture(7, cfg, rng.New(1))
	cfg2 := cfg
	cfg2.NoiseRate = 0
	out["gesture-clean"] = dvs.GenerateGesture(3, cfg2, rng.New(2))

	r := rng.New(3)
	noise := &dvs.Stream{W: 24, H: 24, Duration: 900}
	for i := 0; i < 700; i++ {
		p := int8(1)
		if r.Bernoulli(0.5) {
			p = -1
		}
		noise.Events = append(noise.Events, dvs.Event{X: r.Intn(24), Y: r.Intn(24), P: p, T: r.Float64() * 900})
	}
	noise.Sort()
	out["noise"] = noise

	// Bursts of same-pixel opposite-polarity pairs plus hot rows: the
	// polarity and hot-pixel rules both fire.
	hot := &dvs.Stream{W: 16, H: 16, Duration: 800}
	for i := 0; i < 400; i++ {
		tms := float64(i) * 2
		hot.Events = append(hot.Events, dvs.Event{X: 3, Y: 3, P: 1, T: tms})
		hot.Events = append(hot.Events, dvs.Event{X: 3, Y: 3, P: -1, T: tms})
		hot.Events = append(hot.Events, dvs.Event{X: i % 16, Y: 8, P: 1, T: tms})
	}
	hot.Sort()
	out["hot-pairs"] = hot
	return out
}

// TestIncrementalAQFMatchesAQF pins Algorithm 2 to the reference scan:
// AQF, and any chunking of the flow through IncrementalAQF — single
// events, fixed counts, time windows, one shot — yield output
// bit-identical to refAQF, across fixtures and quantization steps.
func TestIncrementalAQFMatchesAQF(t *testing.T) {
	for name, s := range fixtureStreams(t) {
		for _, qt := range []float64{0, 0.01, 0.015} {
			p := DefaultAQFParams(qt)
			want := refAQF(s, p).Events
			sameEvents(t, fmt.Sprintf("%s/qt=%v/AQF", name, qt), want, AQF(s, p).Events)
			cuts := map[string]func(int) int{
				"one-shot":  func(r int) int { return r },
				"single":    func(r int) int { return 1 },
				"chunk-7":   func(r int) int { return 7 },
				"chunk-64":  func(r int) int { return 64 },
				"window-50": timeCut(s.Events, 50),
				"window-97": timeCut(s.Events, 97),
			}
			for cname, cut := range cuts {
				got := pushAll(t, s, p, cut)
				sameEvents(t, fmt.Sprintf("%s/qt=%v/%s", name, qt, cname), want, got)
			}
		}
	}
}

// TestIncrementalAQFSupportVariants covers non-default support and T1
// so the equivalence is not an artifact of the paper constants.
func TestIncrementalAQFSupportVariants(t *testing.T) {
	s := fixtureStreams(t)["gesture"]
	for _, p := range []AQFParams{
		{S: 1, T1: 2, T2: 30, Qt: 0.01, Support: 1},
		{S: 3, T1: 8, T2: 120, Qt: 0, Support: 4},
		{S: 2, T1: 5, T2: 50, Qt: 0.2}, // coarse quantization: big instants
	} {
		want := refAQF(s, p).Events
		got := pushAll(t, s, p, func(r int) int { return 13 })
		sameEvents(t, fmt.Sprintf("params %+v", p), want, got)
	}
}

// TestIncrementalAQFReset pins that a recycled filter behaves exactly
// like a fresh one on the next recording.
func TestIncrementalAQFReset(t *testing.T) {
	fx := fixtureStreams(t)
	p := DefaultAQFParams(0.01)
	f, err := NewIncrementalAQF(32, 32, fx["gesture"].Duration, p)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, f, fx["gesture"], func(r int) int { return 17 })

	s2 := fx["gesture-clean"]
	f.Reset(s2.Duration)
	got := drive(t, f, s2, func(r int) int { return 17 })
	sameEvents(t, "after reset", refAQF(s2, p).Events, got)
}

// TestIncrementalAQFErrors: out-of-order and off-sensor inputs fail
// loudly instead of silently desynchronizing the filter.
func TestIncrementalAQFErrors(t *testing.T) {
	f, err := NewIncrementalAQF(8, 8, 100, DefaultAQFParams(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Push([]dvs.Event{{X: 9, Y: 0, P: 1, T: 1}}); err == nil {
		t.Fatal("off-sensor event accepted")
	}
	f.Reset(100)
	if _, err := f.Push([]dvs.Event{{X: 1, Y: 1, P: 1, T: 50}}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Push([]dvs.Event{{X: 1, Y: 1, P: 1, T: 10}}); err == nil {
		t.Fatal("out-of-order event accepted")
	}
	if _, err := NewIncrementalAQF(0, 8, 100, DefaultAQFParams(0)); err == nil {
		t.Fatal("invalid sensor accepted")
	}
}

// TestIncrementalAQFBoundedState pins the eviction contract: live
// correlation state tracks the event *rate*, not the recording length.
// A flow four times longer at the same rate must not hold ~4x the
// entries a shorter one peaks at.
func TestIncrementalAQFBoundedState(t *testing.T) {
	build := func(durMS float64, seed uint64) *dvs.Stream {
		r := rng.New(seed)
		s := &dvs.Stream{W: 24, H: 24, Duration: durMS}
		n := int(durMS) // 1 event/ms on average
		for i := 0; i < n; i++ {
			s.Events = append(s.Events, dvs.Event{X: r.Intn(24), Y: r.Intn(24), P: 1, T: r.Float64() * durMS})
		}
		s.Sort()
		return s
	}
	peak := func(s *dvs.Stream) int {
		f, err := NewIncrementalAQF(s.W, s.H, s.Duration, DefaultAQFParams(0.01))
		if err != nil {
			t.Fatal(err)
		}
		max := 0
		for i := 0; i < len(s.Events); i += 32 {
			hi := i + 32
			if hi > len(s.Events) {
				hi = len(s.Events)
			}
			if _, err := f.Push(s.Events[i:hi]); err != nil {
				t.Fatal(err)
			}
			if e, p := f.liveState(); e+p > max {
				max = e + p
			}
		}
		f.Flush()
		return max
	}
	short := peak(build(1000, 5))
	long := peak(build(4000, 6))
	if long > short*2 {
		t.Fatalf("live state grew with duration: peak %d entries at 4s vs %d at 1s", long, short)
	}
}
