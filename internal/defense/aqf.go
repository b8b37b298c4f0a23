// Package defense implements the paper's two defense methods:
// Algorithm 1 (precision-scaling robustness search, search.go) and
// Algorithm 2 (approximate quantization-aware filtering,
// incremental.go; this file holds its parameters and the whole-stream
// and set-level entry points).
package defense

import (
	"repro/internal/dvs"
	"repro/internal/tensor"
)

// AQFParams are Algorithm 2's constants. The paper fixes s=2, T1=5,
// T2=50 (Line 2) and passes the quantization step qt per configuration
// (Table II uses 0.015, 0.01 and 0 seconds).
type AQFParams struct {
	S  int     // spatial neighbourhood radius (pixels)
	T1 int     // activity threshold (hot-pixel run length / support count)
	T2 float64 // temporal correlation window (ms)
	Qt float64 // timestamp quantization step (seconds; 0 = no quantization)

	// Support is the minimum number of neighbourhood events within the
	// last T2 ms for an event to count as correlated; 0 selects the
	// default (2).
	Support int
}

// DefaultAQFParams returns the paper's constants with quantization step
// qt (in seconds, as Table II lists it).
func DefaultAQFParams(qt float64) AQFParams {
	return AQFParams{S: 2, T1: 5, T2: 50, Qt: qt, Support: 2}
}

// AQF removes uncorrelated (adversarial) events from a stream,
// returning a filtered copy: Algorithm 2 run over the whole stream by
// pushing it through one IncrementalAQF, whose doc lists the rules.
// The input must be time-sorted (dvs.Stream.Sort order) and on-sensor,
// as every stream the loaders, generators and attacks produce is; AQF
// panics with the filter's error otherwise. The input is not modified.
func AQF(s *dvs.Stream, p AQFParams) *dvs.Stream {
	out := &dvs.Stream{W: s.W, H: s.H, Duration: s.Duration}
	if len(s.Events) == 0 {
		return out
	}
	f, err := NewIncrementalAQF(s.W, s.H, s.Duration, p)
	if err != nil {
		panic(err)
	}
	kept, err := f.Push(s.Events)
	if err != nil {
		panic(err)
	}
	// Flush reuses the buffer Push returned: copy before flushing.
	out.Events = append(out.Events, kept...)
	out.Events = append(out.Events, f.Flush()...)
	return out
}

// AQFSet filters every stream of a gesture set through AQF, returning a
// new set. Streams filter concurrently on the shared tensor worker
// pool; AQF keeps no cross-stream state, so the result is
// bit-identical to filtering serially, at any worker count.
func AQFSet(set *dvs.Set, p AQFParams) *dvs.Set {
	out := &dvs.Set{Classes: set.Classes, W: set.W, H: set.H, Samples: make([]dvs.Sample, len(set.Samples))}
	tensor.ParallelFor(len(set.Samples), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.Samples[i] = dvs.Sample{Stream: AQF(set.Samples[i].Stream, p), Label: set.Samples[i].Label}
		}
	})
	return out
}
