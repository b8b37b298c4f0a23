package defense

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/dvs"
	"repro/internal/rng"
	"repro/internal/snn"
)

func TestAQFKeepsGestureEvents(t *testing.T) {
	cfg := dvs.DefaultGestureConfig()
	cfg.NoiseRate = 0
	s := dvs.GenerateGesture(7, cfg, rng.New(1))
	f := AQF(s, DefaultAQFParams(0.01))
	kept := float64(len(f.Events)) / float64(len(s.Events))
	if kept < 0.7 {
		t.Fatalf("AQF kept only %.0f%% of genuine gesture events", 100*kept)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAQFRemovesUncorrelatedNoise(t *testing.T) {
	// A stream of pure uniform noise: almost everything should go.
	r := rng.New(2)
	s := &dvs.Stream{W: 32, H: 32, Duration: 1600}
	for i := 0; i < 800; i++ {
		p := int8(1)
		if r.Bernoulli(0.5) {
			p = -1
		}
		s.Events = append(s.Events, dvs.Event{X: r.Intn(32), Y: r.Intn(32), P: p, T: r.Float64() * 1600})
	}
	s.Sort()
	f := AQF(s, DefaultAQFParams(0.01))
	kept := float64(len(f.Events)) / float64(len(s.Events))
	if kept > 0.4 {
		t.Fatalf("AQF kept %.0f%% of uncorrelated noise", 100*kept)
	}
}

func TestAQFSelectivity(t *testing.T) {
	// Mixed stream: gesture plus sparse noise. The filter must be far
	// kinder to gesture events than to noise events.
	cfg := dvs.DefaultGestureConfig()
	cfg.NoiseRate = 0
	s := dvs.GenerateGesture(3, cfg, rng.New(3))
	nSignal := len(s.Events)
	r := rng.New(4)
	for i := 0; i < 400; i++ {
		s.Events = append(s.Events, dvs.Event{X: r.Intn(32), Y: r.Intn(32), P: 1, T: r.Float64() * cfg.Duration})
	}
	// Tag noise by index: remember signal events via a set of values.
	type key struct {
		x, y int
		t    float64
	}
	signal := make(map[key]bool, nSignal)
	for _, e := range s.Events[:nSignal] {
		signal[key{e.X, e.Y, e.T}] = true
	}
	s.Sort()
	f := AQF(s, DefaultAQFParams(0.01))
	sigKept, noiseKept := 0, 0
	for _, e := range f.Events {
		if signal[key{e.X, e.Y, e.T}] {
			sigKept++
		} else {
			noiseKept++
		}
	}
	// Note AQF quantizes timestamps, so signal keys only match when
	// qt=0.01s leaves them identifiable; use qt=0 for exact matching.
	f0 := AQF(s, DefaultAQFParams(0))
	sigKept, noiseKept = 0, 0
	for _, e := range f0.Events {
		if signal[key{e.X, e.Y, e.T}] {
			sigKept++
		} else {
			noiseKept++
		}
	}
	sigRate := float64(sigKept) / float64(nSignal)
	noiseRate := float64(noiseKept) / 400
	if sigRate < noiseRate+0.3 {
		t.Fatalf("AQF not selective: signal kept %.2f vs noise kept %.2f", sigRate, noiseRate)
	}
}

func TestAQFRemovesFrameAttackEvents(t *testing.T) {
	cfg := dvs.DefaultGestureConfig()
	s := dvs.GenerateGesture(5, cfg, rng.New(5))
	net := snn.DVSNet(snn.DefaultConfig(1.0, 10), 32, 32, 11, true, rng.New(6), nil)
	adv := attack.NewFrame().Perturb(net, s, 5)
	injected := len(adv.Events) - len(s.Events)

	f := AQF(adv, DefaultAQFParams(0.015))
	// Count surviving border events.
	border := 0
	for _, e := range f.Events {
		if e.X == 0 || e.Y == 0 || e.X == adv.W-1 || e.Y == adv.H-1 {
			border++
		}
	}
	if border > injected/3 {
		t.Fatalf("AQF left %d of ~%d frame-attack events", border, injected)
	}
}

func TestAQFEmptyStream(t *testing.T) {
	s := &dvs.Stream{W: 8, H: 8, Duration: 100}
	f := AQF(s, DefaultAQFParams(0.01))
	if len(f.Events) != 0 || f.W != 8 || f.Duration != 100 {
		t.Fatal("empty stream mishandled")
	}
}

func TestAQFDoesNotMutateInput(t *testing.T) {
	s := dvs.GenerateGesture(1, dvs.DefaultGestureConfig(), rng.New(7))
	before := len(s.Events)
	t0 := s.Events[0].T
	_ = AQF(s, DefaultAQFParams(0.015))
	if len(s.Events) != before || s.Events[0].T != t0 {
		t.Fatal("AQF mutated its input stream")
	}
}

func TestAQFQuantizesTimestamps(t *testing.T) {
	s := &dvs.Stream{W: 8, H: 8, Duration: 100}
	// A tight burst so correlation keeps them.
	for i := 0; i < 5; i++ {
		s.Events = append(s.Events, dvs.Event{X: 3 + i%2, Y: 3, P: 1, T: 1.2 + float64(i)*0.9})
	}
	f := AQF(s, AQFParams{S: 2, T1: 50, T2: 50, Qt: 0.01}) // 10 ms step
	for _, e := range f.Events {
		q := e.T / 10
		if q != float64(int(q+0.5)) && q != float64(int(q)) {
			// timestamps must sit on multiples of 10ms
			t.Fatalf("timestamp %v not quantized to 10ms", e.T)
		}
	}
}

func TestAQFSetFiltersAll(t *testing.T) {
	cfg := dvs.DefaultGestureConfig()
	cfg.Duration = 300
	set := dvs.GenerateGestureSet(6, cfg, 8)
	out := AQFSet(set, DefaultAQFParams(0.01))
	if out.Classes != set.Classes || out.W != set.W || out.H != set.H || out.Len() != set.Len() {
		t.Fatal("AQFSet mangled set metadata")
	}
	for i := range out.Samples {
		if out.Samples[i].Label != set.Samples[i].Label {
			t.Fatal("AQFSet scrambled labels")
		}
		if out.Samples[i].Stream == set.Samples[i].Stream {
			t.Fatal("AQFSet must return new streams")
		}
	}
}

// TestAQFPanicsOnUnsortedInput: AQF requires time-sorted input, and a
// violation fails loudly with the filter's error instead of filtering
// a flow the rules were not written for.
func TestAQFPanicsOnUnsortedInput(t *testing.T) {
	s := &dvs.Stream{W: 8, H: 8, Duration: 100, Events: []dvs.Event{
		{X: 1, Y: 1, P: 1, T: 50}, {X: 2, Y: 2, P: 1, T: 10},
	}}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "out of order") {
			t.Fatalf("unsorted stream: recovered %v, want the filter's out-of-order error", r)
		}
	}()
	AQF(s, DefaultAQFParams(0))
}

// TestAQFPanicsOffSensor: an event outside the declared sensor fails
// loudly instead of aliasing onto another pixel.
func TestAQFPanicsOffSensor(t *testing.T) {
	s := &dvs.Stream{W: 8, H: 8, Duration: 100, Events: []dvs.Event{{X: 9, Y: 0, P: 1, T: 1}}}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "off the 8x8 sensor") {
			t.Fatalf("off-sensor event: recovered %v, want the filter's off-sensor error", r)
		}
	}()
	AQF(s, DefaultAQFParams(0))
}
