package defense

import (
	"fmt"
	"math"

	"repro/internal/dvs"
)

// IncrementalAQF is the program's implementation of Algorithm 2,
// approximate quantization-aware filtering: it removes uncorrelated
// (adversarial) events from a time-sorted flow. It follows the
// published algorithm's evident intent, since the pseudocode overloads
// its M map as both a timestamp store and a flag store:
//
//  1. Timestamps are quantized to step qt (Line 4).
//  2. Polarity-consistency ("quantization-aware") check: a pixel cannot
//     physically emit both polarities at the same (quantized) instant;
//     such pairs are sensor-impossible artifacts — the Frame attack's
//     signature — and are dropped.
//  3. Spatio-temporal correlation (Lines 5-12, 18-20): each event writes
//     its timestamp into the (2s+1)² neighbourhood activity map,
//     excluding its own pixel; an event is kept only if its own pixel
//     accumulated at least `Support` neighbourhood events within the
//     last T2 ms. Gesture events ride dense moving edges and pass;
//     isolated adversarial events do not. Events within the first T2 ms
//     of the recording pass unconditionally (the published M is
//     zero-initialized, which has exactly this effect).
//  4. Hot-pixel flag (Lines 13-17): a pixel active in more than T1
//     consecutive T2/2-windows fires continuously — defective by DVS
//     standards, and the signature of boundary flooding — and its
//     events are removed from the moment the run crosses the threshold
//     (including the crossing event itself). The rule is causal, as the
//     single-pass pseudocode is: events emitted before the pixel turned
//     hot are not retracted, which is what lets the filter run online
//     with bounded memory.
//
// The filter is chunk-fed: push the flow through Push in pieces of any
// size (reader chunks, windows — the cut points are irrelevant) and the
// concatenated output is bit-identical to pushing it in one piece,
// which is what the whole-stream AQF does. The streaming pipeline runs
// it ahead of its windower, so correlation state and hot-pixel runs
// carry across window boundaries and only the first T2 ms of the
// recording pass unconditionally.
//
// State is bounded however long the flow runs:
//
//   - Hot-pixel runs and flags are O(W×H), constant per recording.
//   - The neighbourhood correlation map only ever needs the trailing
//     T2 ms; a sweep every T2 of stream time evicts older timestamps,
//     so live entries are bounded by the event rate, not the duration.
//   - Events sharing one quantized instant are held back until the
//     instant advances — the polarity-consistency rule must see the
//     whole instant before any of it may be emitted — so the pending
//     buffer is bounded by the densest instant, and output lags input
//     by at most one quantization step.
//
// An IncrementalAQF is not safe for concurrent use; Reset recycles it
// for the next recording without reallocating.
type IncrementalAQF struct {
	w, h     int
	duration float64
	p        AQFParams
	support  int
	qtMS     float64
	winLen   float64

	// Hot-pixel state (step 4), carried for the whole recording.
	lastWin []int
	runLen  []int
	flag    []bool

	// Neighbourhood correlation map (step 3): recent[idx] holds the
	// timestamps neighbouring events wrote at pixel idx, time-ordered,
	// pruned on access and swept past T2 periodically.
	recent  [][]float64
	active  []int  // pixels with a non-empty recent list
	inAct   []bool // membership in active
	sweepAt float64

	// The pending quantized-instant group (step 2).
	pend     []pendingEvent
	pendT    float64
	havePend bool
	pendPol  map[int]uint8 // pixel -> polarity bits seen at pendT

	out []dvs.Event // emission buffer, recycled across Push/Flush calls
}

// pendingEvent is one event awaiting its instant's polarity verdict;
// keep records the outcome of every other rule, decided on arrival.
type pendingEvent struct {
	e    dvs.Event
	keep bool
}

// NewIncrementalAQF builds an online AQF for a w×h sensor recording of
// the given duration (ms). The parameters follow AQFParams; the zero
// Support defaults to 2.
func NewIncrementalAQF(w, h int, duration float64, p AQFParams) (*IncrementalAQF, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("defense: invalid sensor size %dx%d", w, h)
	}
	if math.IsNaN(duration) || math.IsInf(duration, 0) || duration < 0 {
		return nil, fmt.Errorf("defense: invalid duration %v", duration)
	}
	f := &IncrementalAQF{
		w: w, h: h, p: p,
		lastWin: make([]int, w*h),
		runLen:  make([]int, w*h),
		flag:    make([]bool, w*h),
		recent:  make([][]float64, w*h),
		inAct:   make([]bool, w*h),
		pendPol: make(map[int]uint8),
	}
	f.support = p.Support
	if f.support <= 0 {
		f.support = 2
	}
	f.qtMS = p.Qt * 1000
	f.winLen = p.T2 / 2
	if f.winLen <= 0 {
		f.winLen = 25
	}
	f.Reset(duration)
	return f, nil
}

// Reset clears all filter state for a new recording of the given
// duration, keeping every buffer so steady-state serving reallocates
// nothing per recording.
func (f *IncrementalAQF) Reset(duration float64) {
	f.duration = duration
	for i := range f.lastWin {
		f.lastWin[i] = -2
	}
	for i := range f.runLen {
		f.runLen[i] = 0
	}
	for i := range f.flag {
		f.flag[i] = false
	}
	for _, idx := range f.active {
		f.recent[idx] = f.recent[idx][:0]
		f.inAct[idx] = false
	}
	f.active = f.active[:0]
	f.sweepAt = 0
	f.resetPending()
	f.pend = f.pend[:0]
	f.havePend = false
	f.out = f.out[:0]
}

// resetPending clears the instant group's polarity map via its own
// members (the map never holds keys outside the group).
func (f *IncrementalAQF) resetPending() {
	for _, pe := range f.pend {
		delete(f.pendPol, pe.e.Y*f.w+pe.e.X)
	}
}

// Push feeds the next chunk of the time-sorted flow through the filter
// and returns the events whose verdict is now final, in stream order
// with quantized timestamps — exactly the events a single Push of the
// whole flow would emit for this span. The returned slice is the filter's internal
// buffer, valid until the next Push or Flush; callers that keep it copy
// it. Events must arrive sorted and on-sensor, or Push errors.
func (f *IncrementalAQF) Push(events []dvs.Event) ([]dvs.Event, error) {
	f.out = f.out[:0]
	for _, e := range events {
		if e.X < 0 || e.X >= f.w || e.Y < 0 || e.Y >= f.h {
			return nil, fmt.Errorf("defense: event at (%d,%d) off the %dx%d sensor", e.X, e.Y, f.w, f.h)
		}
		// Step 1: quantize, clamping into the recording window.
		// Rounding is monotone, so sorted input stays sorted after
		// quantization.
		if f.qtMS > 0 {
			e.T = math.Round(e.T/f.qtMS) * f.qtMS
			if e.T > f.duration {
				e.T = f.duration
			}
		}
		if f.havePend && e.T < f.pendT {
			return nil, fmt.Errorf("defense: event at %gms after instant %gms: input out of order", e.T, f.pendT)
		}
		if !f.havePend || e.T > f.pendT {
			f.resolve()
			f.pendT, f.havePend = e.T, true
			f.maybeSweep(e.T)
		}
		idx := e.Y*f.w + e.X

		// Step 4: hot-pixel run bookkeeping, causal — the event
		// crossing T1 is itself dropped.
		win := int(e.T / f.winLen)
		switch {
		case win == f.lastWin[idx]:
			// same window: no run-length change
		case win == f.lastWin[idx]+1:
			f.runLen[idx]++
			f.lastWin[idx] = win
		default:
			f.runLen[idx] = 1
			f.lastWin[idx] = win
		}
		if f.runLen[idx] > f.p.T1 {
			f.flag[idx] = true
		}

		// Step 3: neighbourhood support. The polarity verdict (step 2)
		// is the only rule that needs the rest of the instant; every
		// other rule is decided here, on arrival.
		keep := !f.flag[idx]
		if keep && e.T > f.p.T2 {
			keep = f.countRecent(idx, e.T) >= f.support
		}
		bit := uint8(1)
		if e.P < 0 {
			bit = 2
		}
		f.pendPol[idx] |= bit

		// Write the neighbourhood map after the test: an event never
		// vouches for itself.
		for dy := -f.p.S; dy <= f.p.S; dy++ {
			for dx := -f.p.S; dx <= f.p.S; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				x, y := e.X+dx, e.Y+dy
				if x < 0 || x >= f.w || y < 0 || y >= f.h {
					continue
				}
				n := y*f.w + x
				f.recent[n] = append(f.recent[n], e.T)
				if !f.inAct[n] {
					f.inAct[n] = true
					f.active = append(f.active, n)
				}
			}
		}
		f.pend = append(f.pend, pendingEvent{e, keep})
	}
	return f.out, nil
}

// Flush resolves the final quantized instant and returns its surviving
// events; the flow is complete. Like Push's result, the slice is valid
// until the next Push or Flush. Call Reset before reusing the filter.
func (f *IncrementalAQF) Flush() []dvs.Event {
	f.out = f.out[:0]
	f.resolve()
	return f.out
}

// resolve settles the pending instant: events that passed the causal
// rules survive unless their pixel emitted both polarities at this
// instant (step 2's sensor-impossibility), and survivors append to out
// in arrival order.
func (f *IncrementalAQF) resolve() {
	for _, pe := range f.pend {
		if pe.keep && f.pendPol[pe.e.Y*f.w+pe.e.X] != 3 {
			f.out = append(f.out, pe.e)
		}
	}
	f.resetPending()
	f.pend = f.pend[:0]
}

// countRecent counts pixel idx's strictly-earlier neighbourhood events
// within the trailing T2 window, compacting expired entries in place.
// Only strictly earlier neighbours count as support: a moving edge
// always has earlier neighbours, while a batch of simultaneous
// injected events does not — simultaneity cannot vouch for itself.
func (f *IncrementalAQF) countRecent(idx int, t float64) int {
	buf := f.recent[idx]
	keep := buf[:0]
	n := 0
	for _, ts := range buf {
		if t-ts <= f.p.T2 {
			keep = append(keep, ts)
			if ts < t {
				n++
			}
		}
	}
	f.recent[idx] = keep
	return n
}

// maybeSweep evicts correlation entries older than T2 once per T2 of
// stream time. Evicted entries could never count again (support only
// looks back T2 from a non-decreasing clock), so the sweep is
// semantically invisible; it exists to bound memory on pixels the scan
// never touches again.
func (f *IncrementalAQF) maybeSweep(t float64) {
	if t-f.sweepAt <= f.p.T2 {
		return
	}
	f.sweepAt = t
	live := f.active[:0]
	for _, idx := range f.active {
		buf := f.recent[idx]
		keep := buf[:0]
		for _, ts := range buf {
			if t-ts <= f.p.T2 {
				keep = append(keep, ts)
			}
		}
		f.recent[idx] = keep
		if len(keep) == 0 {
			f.inAct[idx] = false
			continue
		}
		live = append(live, idx)
	}
	f.active = live
}

// liveState reports the filter's live correlation entries and pending
// events — the quantities the bounded-memory property test pins.
func (f *IncrementalAQF) liveState() (entries, pending int) {
	for _, idx := range f.active {
		entries += len(f.recent[idx])
	}
	return entries, len(f.pend)
}
