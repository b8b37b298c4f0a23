package dvs

import (
	"math"

	"repro/internal/rng"
)

// The synthetic gesture generator substitutes for the DVS128 Gesture
// recordings. Each of the 11 classes is a parametric moving emitter; as
// the emitter moves, its leading edge fires +1 events and its trailing
// edge fires -1 events, which is how a real DVS responds to a moving
// bright object. Background sensor noise is Poisson.
//
// What matters for the paper's experiments is preserved: gesture events
// are spatio-temporally *correlated* (dense trajectories), while attack
// events are not — the contrast AQF exploits — and the classes are
// separable by their motion signature, so an SNN can learn them.

// GestureClasses matches DVS128 Gesture's 11 classes.
const GestureClasses = 11

// GestureNames gives a readable name per class index.
var GestureNames = [GestureClasses]string{
	"hand_clap",
	"rh_wave",
	"lh_wave",
	"rh_clockwise",
	"rh_counter_clockwise",
	"lh_clockwise",
	"lh_counter_clockwise",
	"arm_roll",
	"air_drums",
	"air_guitar",
	"other",
}

// GestureConfig controls the synthetic recorder.
type GestureConfig struct {
	W, H      int     // sensor resolution
	Duration  float64 // recording length in ms
	StepMS    float64 // simulation step in ms
	BlobR     float64 // emitter radius in pixels
	NoiseRate float64 // mean background-noise events per ms over the sensor
	SpeedJit  float64 // relative speed jitter between samples
}

// DefaultGestureConfig returns the settings used by the harness: a 32×32
// sensor (scaled from 128×128) over a 1.6 s window.
func DefaultGestureConfig() GestureConfig {
	return GestureConfig{
		W: 32, H: 32,
		Duration:  1600,
		StepMS:    4,
		BlobR:     2.6,
		NoiseRate: 0.08,
		SpeedJit:  0.25,
	}
}

// emitterPos returns the emitter centre for class at phase u ∈ [0,1),
// in unit coordinates. Two-emitter classes return both positions; single
// emitter classes return ok2 = false.
func emitterPos(class int, u float64) (x1, y1 float64, x2, y2 float64, ok2 bool) {
	twoPi := 2 * math.Pi
	switch class {
	case 0: // hand_clap: two blobs oscillate toward/away horizontally
		d := 0.18 + 0.14*math.Abs(math.Sin(twoPi*u*2))
		return 0.5 - d, 0.55, 0.5 + d, 0.55, true
	case 1: // rh_wave: right-side bar swings vertically
		return 0.72, 0.5 + 0.3*math.Sin(twoPi*u*2), 0, 0, false
	case 2: // lh_wave
		return 0.28, 0.5 + 0.3*math.Sin(twoPi*u*2), 0, 0, false
	case 3: // rh_clockwise: right-side orbit, clockwise
		return 0.68 + 0.16*math.Cos(twoPi*u*1.5), 0.5 + 0.16*math.Sin(twoPi*u*1.5), 0, 0, false
	case 4: // rh_counter_clockwise
		return 0.68 + 0.16*math.Cos(-twoPi*u*1.5), 0.5 + 0.16*math.Sin(-twoPi*u*1.5), 0, 0, false
	case 5: // lh_clockwise
		return 0.32 + 0.16*math.Cos(twoPi*u*1.5), 0.5 + 0.16*math.Sin(twoPi*u*1.5), 0, 0, false
	case 6: // lh_counter_clockwise
		return 0.32 + 0.16*math.Cos(-twoPi*u*1.5), 0.5 + 0.16*math.Sin(-twoPi*u*1.5), 0, 0, false
	case 7: // arm_roll: wide full-frame orbit
		return 0.5 + 0.32*math.Cos(twoPi*u), 0.5 + 0.32*math.Sin(twoPi*u), 0, 0, false
	case 8: // air_drums: two blobs strike vertically in antiphase
		return 0.35, 0.35 + 0.3*math.Abs(math.Sin(twoPi*u*3)),
			0.65, 0.35 + 0.3*math.Abs(math.Cos(twoPi*u*3)), true
	case 9: // air_guitar: diagonal strum
		s := 0.5 + 0.5*math.Sin(twoPi*u*2.5)
		return 0.3 + 0.4*s, 0.7 - 0.35*s, 0, 0, false
	default: // other: slow figure-eight drift
		return 0.5 + 0.25*math.Sin(twoPi*u), 0.5 + 0.25*math.Sin(2*twoPi*u), 0, 0, false
	}
}

// GenerateGesture records one synthetic gesture of the given class.
func GenerateGesture(class int, cfg GestureConfig, r *rng.RNG) *Stream {
	s := &Stream{W: cfg.W, H: cfg.H, Duration: cfg.Duration}
	speed := 1 + (2*r.Float64()-1)*cfg.SpeedJit
	phase := r.Float64()

	prevOn := make([]bool, cfg.W*cfg.H)
	curOn := make([]bool, cfg.W*cfg.H)

	markBlob := func(on []bool, cx, cy float64) {
		rad := cfg.BlobR
		minX := int(math.Floor(cx*float64(cfg.W) - rad - 1))
		maxX := int(math.Ceil(cx*float64(cfg.W) + rad + 1))
		minY := int(math.Floor(cy*float64(cfg.H) - rad - 1))
		maxY := int(math.Ceil(cy*float64(cfg.H) + rad + 1))
		for y := max(0, minY); y <= min(cfg.H-1, maxY); y++ {
			for x := max(0, minX); x <= min(cfg.W-1, maxX); x++ {
				dx := float64(x) + 0.5 - cx*float64(cfg.W)
				dy := float64(y) + 0.5 - cy*float64(cfg.H)
				if dx*dx+dy*dy <= rad*rad {
					on[y*cfg.W+x] = true
				}
			}
		}
	}

	for t := 0.0; t < cfg.Duration; t += cfg.StepMS {
		u := math.Mod(phase+speed*t/cfg.Duration, 1)
		for i := range curOn {
			curOn[i] = false
		}
		x1, y1, x2, y2, two := emitterPos(class, u)
		markBlob(curOn, x1, y1)
		if two {
			markBlob(curOn, x2, y2)
		}
		// Edge events: pixels that turned on fire +1, turned off fire -1.
		for i := range curOn {
			if curOn[i] == prevOn[i] {
				continue
			}
			// A real sensor is slightly lossy; drop ~15% of edge events.
			if r.Float64() < 0.15 {
				continue
			}
			p := int8(1)
			if !curOn[i] {
				p = -1
			}
			s.Events = append(s.Events, Event{
				X: i % cfg.W, Y: i / cfg.W, P: p,
				T: t + r.Float64()*cfg.StepMS,
			})
		}
		prevOn, curOn = curOn, prevOn

		// Background noise: spatially and temporally uncorrelated.
		n := r.Poisson(cfg.NoiseRate * cfg.StepMS)
		for k := 0; k < n; k++ {
			p := int8(1)
			if r.Bernoulli(0.5) {
				p = -1
			}
			s.Events = append(s.Events, Event{
				X: r.Intn(cfg.W), Y: r.Intn(cfg.H), P: p,
				T: t + r.Float64()*cfg.StepMS,
			})
		}
	}
	s.Sort()
	// Clamp any timestamp jitter past the window end.
	for i := range s.Events {
		if s.Events[i].T > s.Duration {
			s.Events[i].T = s.Duration
		}
	}
	return s
}

// GenerateGestureSet produces n labelled recordings with a balanced class
// distribution, deterministically from seed.
func GenerateGestureSet(n int, cfg GestureConfig, seed uint64) *Set {
	r := rng.New(seed)
	set := &Set{Classes: GestureClasses, W: cfg.W, H: cfg.H, Samples: make([]Sample, n)}
	for i := 0; i < n; i++ {
		label := i % GestureClasses
		set.Samples[i] = Sample{Stream: GenerateGesture(label, cfg, r), Label: label}
	}
	r.Shuffle(n, func(i, j int) {
		set.Samples[i], set.Samples[j] = set.Samples[j], set.Samples[i]
	})
	return set
}
