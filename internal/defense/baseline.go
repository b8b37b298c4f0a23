package defense

import (
	"repro/internal/dvs"
	"repro/internal/tensor"
)

// BackgroundActivityFilter is the classic DVS denoiser (Delbruck's
// background-activity filter, the baseline the R-SNN line of work builds
// on): an event is kept only if any pixel in its 8-neighbourhood fired
// within the last WindowMS milliseconds. It has no quantization step, no
// hot-pixel logic and no support count — AQF's ablation baseline.
type BackgroundActivityFilter struct {
	WindowMS float64
}

// NewBackgroundActivityFilter returns the filter with the conventional
// 50 ms window.
func NewBackgroundActivityFilter() *BackgroundActivityFilter {
	return &BackgroundActivityFilter{WindowMS: 50}
}

// Filter returns a filtered copy of the stream.
func (f *BackgroundActivityFilter) Filter(s *dvs.Stream) *dvs.Stream {
	out := &dvs.Stream{W: s.W, H: s.H, Duration: s.Duration}
	last := make([]float64, s.W*s.H)
	for i := range last {
		last[i] = -f.WindowMS - 1
	}
	for _, e := range s.Events {
		idx := e.Y*s.W + e.X
		if e.T-last[idx] <= f.WindowMS {
			out.Events = append(out.Events, e)
		}
		// Refresh the neighbourhood (8-connected), not the pixel
		// itself: an isolated pixel cannot keep itself alive.
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				x, y := e.X+dx, e.Y+dy
				if x < 0 || x >= s.W || y < 0 || y >= s.H {
					continue
				}
				n := y*s.W + x
				if e.T > last[n] {
					last[n] = e.T
				}
			}
		}
	}
	return out
}

// FilterSet applies the filter to every stream of a set, fanning the
// per-stream work out over the shared tensor worker pool like AQFSet;
// streams filter independently, so the result is identical at any
// worker count.
func (f *BackgroundActivityFilter) FilterSet(set *dvs.Set) *dvs.Set {
	out := &dvs.Set{Classes: set.Classes, W: set.W, H: set.H, Samples: make([]dvs.Sample, len(set.Samples))}
	tensor.ParallelFor(len(set.Samples), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Samples[i] = dvs.Sample{Stream: f.Filter(set.Samples[i].Stream), Label: set.Samples[i].Label}
		}
	})
	return out
}
