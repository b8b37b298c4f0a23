// Package dvs models dynamic-vision-sensor (event camera) data: the event
// representation used by the neuromorphic side of the paper, a synthetic
// DVS128-Gesture-like generator, and voxelization of event streams into
// the per-time-step frames the SNN consumes.
//
// An event is (x, y, p, t): pixel coordinates, polarity and timestamp in
// milliseconds. Real DVS128 Gesture recordings are 128×128; the synthetic
// generator defaults to 32×32 so pure-Go experiments stay fast, and the
// resolution is a parameter throughout.
package dvs

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/tensor"
)

// Event is one DVS event. Polarity is +1 (brightness increase) or -1.
type Event struct {
	X, Y int
	P    int8
	T    float64 // milliseconds
}

// Stream is a time-ordered list of events from a W×H sensor.
type Stream struct {
	W, H     int
	Duration float64 // milliseconds
	Events   []Event
}

// Clone deep-copies the stream.
func (s *Stream) Clone() *Stream {
	out := &Stream{W: s.W, H: s.H, Duration: s.Duration, Events: make([]Event, len(s.Events))}
	copy(out.Events, s.Events)
	return out
}

// Sort orders events by timestamp (stable on ties).
func (s *Stream) Sort() {
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].T < s.Events[j].T })
}

// Validate checks that the recording window is finite and that every
// event lies on the sensor and inside the window, with polarity ±1.
// Timestamps must be finite: NaN compares false against every bound, so
// without the explicit checks a hostile stream could smuggle NaN times
// through the range tests (and then poison every voxel-bin division
// downstream).
func (s *Stream) Validate() error {
	if s.W <= 0 || s.H <= 0 {
		return fmt.Errorf("dvs: invalid sensor size %dx%d", s.W, s.H)
	}
	if math.IsNaN(s.Duration) || math.IsInf(s.Duration, 0) || s.Duration < 0 {
		return fmt.Errorf("dvs: invalid duration %v", s.Duration)
	}
	for i, e := range s.Events {
		// The per-event checks are shared with the streaming codec
		// (stream_io.go), so a stream assembled in memory and one
		// decoded chunk by chunk pass exactly the same gate.
		if err := validateEvent(e, s.W, s.H, s.Duration); err != nil {
			return fmt.Errorf("dvs: event %d %v", i, err)
		}
	}
	return nil
}

// Voxelize bins the stream into steps frames of shape (2, H, W): channel 0
// holds positive-polarity events, channel 1 negative. Values are clamped
// to [0,1] (spike presence), which is the standard SNN input encoding for
// event data.
func (s *Stream) Voxelize(steps int) []*tensor.Tensor {
	frames := make([]*tensor.Tensor, steps)
	for i := range frames {
		frames[i] = tensor.New(2, s.H, s.W)
	}
	s.VoxelizeInto(frames)
	return frames
}

// VoxelizeInto is Voxelize writing into caller-owned frames — the
// allocation-free form the streaming pipeline runs per window. frames
// must hold len(frames) tensors of shape (2, H, W); they are zeroed
// first. Results are bit-identical to Voxelize(len(frames)).
//
//axsnn:hotpath
func (s *Stream) VoxelizeInto(frames []*tensor.Tensor) {
	VoxelizeWindowInto(frames, s.Events, s.W, s.H, 0, s.Duration)
}

// EventCountGrid returns per-pixel event counts summed over time and
// polarity, used by analysis and by attack budgeting.
func (s *Stream) EventCountGrid() *tensor.Tensor {
	g := tensor.New(s.H, s.W)
	for _, e := range s.Events {
		if e.X < 0 || e.X >= s.W || e.Y < 0 || e.Y >= s.H {
			continue // defense in depth, mirroring Voxelize
		}
		g.Data[e.Y*s.W+e.X]++
	}
	return g
}

// ConcatStreams joins recordings end to end into one continuous flow:
// segment k's events are shifted by the total duration of the segments
// before it (clamped to the flow's window against end-of-segment
// jitter). All segments must share one sensor. The demo flows, the
// pipeline benchmarks and the bounded-memory tests all build long
// recordings through this one helper.
func ConcatStreams(segs ...*Stream) (*Stream, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("dvs: ConcatStreams with no segments")
	}
	out := &Stream{W: segs[0].W, H: segs[0].H}
	for _, s := range segs {
		out.Duration += s.Duration
	}
	offset := 0.0
	for i, s := range segs {
		if s.W != out.W || s.H != out.H {
			return nil, fmt.Errorf("dvs: segment %d is %dx%d, flow is %dx%d", i, s.W, s.H, out.W, out.H)
		}
		for _, e := range s.Events {
			e.T += offset
			if e.T > out.Duration {
				e.T = out.Duration
			}
			out.Events = append(out.Events, e)
		}
		offset += s.Duration
	}
	return out, nil
}

// Sample is one labelled gesture recording.
type Sample struct {
	Stream *Stream
	Label  int
}

// Set is an in-memory labelled collection of gesture recordings.
type Set struct {
	Samples []Sample
	Classes int
	W, H    int
}

// Len returns the number of samples.
func (s *Set) Len() int { return len(s.Samples) }

// Subset returns a view of the first n samples.
func (s *Set) Subset(n int) *Set {
	if n > len(s.Samples) {
		n = len(s.Samples)
	}
	return &Set{Samples: s.Samples[:n], Classes: s.Classes, W: s.W, H: s.H}
}

// Clone deep-copies the set (attacks mutate streams).
func (s *Set) Clone() *Set {
	out := &Set{Samples: make([]Sample, len(s.Samples)), Classes: s.Classes, W: s.W, H: s.H}
	for i, sm := range s.Samples {
		out.Samples[i] = Sample{Stream: sm.Stream.Clone(), Label: sm.Label}
	}
	return out
}
