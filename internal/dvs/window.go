package dvs

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Windowing: the streaming pipeline (internal/stream) does not classify
// whole recordings — it slices the event flow into consecutive
// fixed-duration windows and classifies each one, so an unbounded
// recording produces a prediction every WindowMS with O(window) state.
//
// Window k covers [k·WindowMS, (k+1)·WindowMS); membership is decided
// by comparisons against float64(k)·WindowMS in every implementation
// here (never by division alone), so the incremental Windower and the
// in-memory SplitWindows reference agree bit-for-bit at the float
// boundaries. Events at or past the end of the recording window clamp
// into the last window, mirroring Voxelize's last-bin clamp.

// NumWindows returns how many fixed-duration windows cover a recording:
// ceil(duration/windowMS), at least 1.
func NumWindows(duration, windowMS float64) int {
	if windowMS <= 0 {
		return 1
	}
	n := int(math.Ceil(duration / windowMS))
	if n < 1 {
		n = 1
	}
	return n
}

// VoxelizeWindowInto bins the events of one window into caller-owned
// frames (shape (2, h, w) each, zeroed first): channel 0 positive
// polarity, channel 1 negative, values clamped to {0,1} — exactly
// Stream.Voxelize over a stream starting at `start` with duration
// windowMS. Off-sensor events are skipped (defense in depth, mirroring
// Voxelize); events before `start` or past the window clamp into the
// first/last bin.
//
//axsnn:hotpath
func VoxelizeWindowInto(frames []*tensor.Tensor, events []Event, w, h int, start, windowMS float64) {
	for i := range frames {
		frames[i].Zero()
	}
	steps := len(frames)
	if windowMS <= 0 || steps == 0 {
		return
	}
	binW := windowMS / float64(steps)
	for _, e := range events {
		if e.X < 0 || e.X >= w || e.Y < 0 || e.Y >= h {
			continue
		}
		rel := e.T - start
		b := int(rel / binW)
		if b >= steps {
			b = steps - 1
		}
		if b < 0 {
			b = 0
		}
		ch := 0
		if e.P < 0 {
			ch = 1
		}
		frames[b].Data[(ch*h+e.Y)*w+e.X] = 1
	}
}

// Windower slices a time-ordered event flow into consecutive
// fixed-duration windows without ever holding more than one window of
// events. Offer events in timestamp order; when Offer reports the
// event belongs to a later window, Pop the current window (possibly
// empty — silent stretches still produce predictions) and re-Offer.
// After input ends, keep Popping until Done: the tail of the recording
// window is emitted as (possibly empty) windows too, so a recording
// always yields exactly NumWindows windows. Reset rearms it for the
// next recording and keeps its event buffer, so a windower reused
// across recordings allocates nothing once warm.
type Windower struct {
	// WindowMS is the window duration in milliseconds.
	WindowMS float64
	// Num is the total number of windows (from the recording duration);
	// events at or past the end clamp into the last window.
	Num int

	cur int
	buf []Event
}

// NewWindower builds a windower for a recording of the given duration.
func NewWindower(windowMS, duration float64) (*Windower, error) {
	w := &Windower{WindowMS: windowMS}
	if err := w.Reset(duration); err != nil {
		return nil, err
	}
	return w, nil
}

// Reset rearms the windower at window 0 for a recording of the given
// duration, with the same validation as NewWindower. WindowMS and the
// event buffer's backing array are kept.
func (w *Windower) Reset(duration float64) error {
	if w.WindowMS <= 0 || math.IsNaN(w.WindowMS) || math.IsInf(w.WindowMS, 0) {
		return fmt.Errorf("dvs: invalid window duration %vms", w.WindowMS)
	}
	if math.IsNaN(duration) || math.IsInf(duration, 0) || duration < 0 {
		return fmt.Errorf("dvs: invalid duration %v", duration)
	}
	w.Num = NumWindows(duration, w.WindowMS)
	w.cur = 0
	w.buf = w.buf[:0]
	return nil
}

// start returns window k's opening timestamp.
func (w *Windower) start(k int) float64 { return float64(k) * w.WindowMS }

// Offer places e in the current window, or reports false when e belongs
// to a later window — Pop the current window first, then re-Offer. An
// event earlier than the current window is an error: the flow is out of
// order beyond what the reader's reorder buffer absorbed, and silently
// misbinning it would desynchronize the windowed predictions. (This is
// the ordering enforcement Voxelize alone never had: the windower
// refuses to proceed instead of producing wrong windows.)
func (w *Windower) Offer(e Event) (bool, error) {
	if e.T < w.start(w.cur) {
		return false, fmt.Errorf("dvs: event at %gms before window %d start (%gms): input out of order beyond the reorder window",
			e.T, w.cur, w.start(w.cur))
	}
	if w.cur+1 < w.Num && e.T >= w.start(w.cur+1) {
		return false, nil
	}
	w.buf = append(w.buf, e)
	return true, nil
}

// Pop emits the current (possibly empty) window and advances to the
// next. The returned slice is the windower's internal buffer, valid
// only until the next Offer; callers that keep a window copy it.
func (w *Windower) Pop() (idx int, start float64, events []Event) {
	idx, start, events = w.cur, w.start(w.cur), w.buf
	w.cur++
	w.buf = w.buf[:0]
	return idx, start, events
}

// Done reports whether every window has been popped.
func (w *Windower) Done() bool { return w.cur >= w.Num }

// SplitWindows slices a time-sorted in-memory stream into NumWindows
// standalone sub-streams of duration windowMS with window-rebased
// timestamps — the in-memory reference of the streaming pipeline's
// windowing, implemented independently of Windower so the equivalence
// tests pin two implementations against each other. Voxelizing
// sub-stream k reproduces VoxelizeWindowInto over window k bit-for-bit
// (same rebasing subtraction, same bin arithmetic).
func SplitWindows(s *Stream, windowMS float64) []*Stream {
	num := NumWindows(s.Duration, windowMS)
	out := make([]*Stream, num)
	for k := range out {
		out[k] = &Stream{W: s.W, H: s.H, Duration: windowMS}
	}
	for _, e := range s.Events {
		k := 0
		if windowMS > 0 {
			k = int(e.T / windowMS)
		}
		// Float division can land one off at an exact boundary; settle
		// membership with the same float64(k)*windowMS comparisons the
		// Windower uses.
		for k+1 < num && e.T >= float64(k+1)*windowMS {
			k++
		}
		for k > 0 && e.T < float64(k)*windowMS {
			k--
		}
		if k >= num {
			k = num - 1
		}
		e.T -= float64(k) * windowMS
		out[k].Events = append(out[k].Events, e)
	}
	return out
}
