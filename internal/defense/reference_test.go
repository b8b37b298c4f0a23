package defense

import (
	"math"

	"repro/internal/dvs"
)

// refAQF is the test reference for Algorithm 2: the whole-stream scan
// the filter was first written as, kept verbatim so AQF and
// IncrementalAQF are pinned to code that shares none of theirs. It
// quantizes a copy of the stream up front, decides the polarity rule
// from two (pixel, instant) count maps built over the whole stream,
// then makes one causal pass applying the hot-pixel and support rules
// in the order IncrementalAQF's doc lists them. The input must be
// time-sorted; it is not modified.
func refAQF(s *dvs.Stream, p AQFParams) *dvs.Stream {
	out := &dvs.Stream{W: s.W, H: s.H, Duration: s.Duration}
	if len(s.Events) == 0 {
		return out
	}
	support := p.Support
	if support <= 0 {
		support = 2
	}

	events := make([]dvs.Event, len(s.Events))
	copy(events, s.Events)

	// Step 1: quantize timestamps (qt is in seconds; timestamps in ms).
	qtMS := p.Qt * 1000
	if qtMS > 0 {
		for i := range events {
			events[i].T = math.Round(events[i].T/qtMS) * qtMS
			if events[i].T > s.Duration {
				events[i].T = s.Duration
			}
		}
	}

	// Step 2: drop same-pixel same-instant opposite-polarity pairs.
	type pxt struct {
		idx int
		t   float64
	}
	seenPos := make(map[pxt]int) // -> count of +1 events at (pixel, t)
	seenNeg := make(map[pxt]int)
	for _, e := range events {
		k := pxt{e.Y*s.W + e.X, e.T}
		if e.P > 0 {
			seenPos[k]++
		} else {
			seenNeg[k]++
		}
	}
	impossible := func(e dvs.Event) bool {
		k := pxt{e.Y*s.W + e.X, e.T}
		return seenPos[k] > 0 && seenNeg[k] > 0
	}

	// Step 4 bookkeeping: hot-pixel runs, updated inline in the scan
	// below so the flag is causal — an event sees the run state up to
	// and including itself, never the pixel's future.
	winLen := p.T2 / 2
	if winLen <= 0 {
		winLen = 25
	}
	lastWin := make([]int, s.W*s.H)
	runLen := make([]int, s.W*s.H)
	flag := make([]bool, s.W*s.H)
	for i := range lastWin {
		lastWin[i] = -2
	}

	// Step 3: neighbourhood-support filter. recent[idx] holds the
	// timestamps of neighbourhood events at pixel idx, pruned to the
	// trailing T2 window as the (time-sorted) scan advances.
	recent := make([][]float64, s.W*s.H)
	countRecent := func(idx int, t float64) int {
		buf := recent[idx]
		// Drop expired entries in place; only *strictly earlier*
		// neighbours count as support. A moving edge always has
		// earlier neighbours; a batch of simultaneous injected events
		// does not — simultaneity cannot vouch for itself.
		keep := buf[:0]
		n := 0
		for _, ts := range buf {
			if t-ts <= p.T2 {
				keep = append(keep, ts)
				if ts < t {
					n++
				}
			}
		}
		recent[idx] = keep
		return n
	}

	for _, e := range events {
		idx := e.Y*s.W + e.X
		// Hot-pixel run bookkeeping first: the event that pushes a run
		// past T1 is itself dropped, along with everything after it.
		win := int(e.T / winLen)
		switch {
		case win == lastWin[idx]:
			// same window: no run-length change
		case win == lastWin[idx]+1:
			runLen[idx]++
			lastWin[idx] = win
		default:
			runLen[idx] = 1
			lastWin[idx] = win
		}
		if runLen[idx] > p.T1 {
			flag[idx] = true
		}
		keep := !flag[idx] && !impossible(e)
		if keep && e.T > p.T2 {
			keep = countRecent(idx, e.T) >= support
		}
		// Write the neighbourhood map after the test: an event never
		// vouches for itself (Lines 7-8 exclude the centre pixel).
		for dy := -p.S; dy <= p.S; dy++ {
			for dx := -p.S; dx <= p.S; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				x, y := e.X+dx, e.Y+dy
				if x < 0 || x >= s.W || y < 0 || y >= s.H {
					continue
				}
				recent[y*s.W+x] = append(recent[y*s.W+x], e.T)
			}
		}
		if keep {
			out.Events = append(out.Events, e)
		}
	}
	return out
}
