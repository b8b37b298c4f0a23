package dvs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The streaming AEDAT codec. ReadAEDAT/WriteAEDAT materialize the whole
// recording; StreamReader and StreamWriter speak the same container
// (see aedat.go for the layout) in fixed-size chunks, so a recording
// arbitrarily larger than memory can be validated, filtered, windowed
// and classified while only ever holding O(chunk) events. The batch
// helpers in aedat.go are rewired through this codec, so there is a
// single implementation of the format and of its validation rules.
//
// Validation matches the in-memory path: the header is checked up
// front (sensor bounds, finite duration, sane event count) and every
// decoded event passes the same bounds/polarity/timestamp checks
// Stream.Validate applies, so a hostile or corrupt file fails at the
// offending record instead of poisoning a voxelization worker later.
//
// Real sensors jitter: events can arrive mildly out of order (USB
// packet reordering, multi-chip mux). ReorderWindow re-sorts the flow
// through a bounded sorted buffer — any event displaced at most
// ReorderWindow positions from its time-sorted place is emitted in
// order (ties keep file order, matching Stream.Sort's stability); a
// displacement beyond the window is an error, never a silently
// unsorted output. An in-order event is appended in O(1); a late one
// costs a binary search plus one copy of at most ReorderWindow
// buffered events, so sorted recordings decode at codec speed.

// eventRecSize is the wire size of one event record.
const eventRecSize = 16

// maxStreamEvents caps the event count the WHOLE-FILE loader
// (ReadAEDAT) will materialize (100 MB of payload), so a hostile
// header cannot balloon its preallocation. The streaming codec is
// deliberately uncapped: StreamReader's memory is bounded by the
// caller's chunk buffer and the reorder window whatever the header
// declares — serving recordings past this limit is its whole point.
const maxStreamEvents = 100 << 20 / eventRecSize

// headerSize is magic + width + height + duration + count.
const headerSize = 8 + 4 + 4 + 8 + 8

// countOffset is the byte offset of the count field, which StreamWriter
// backpatches on Close when the sink is seekable.
const countOffset = 8 + 4 + 4 + 8

// validateHeader checks the container-level fields shared by reader and
// writer: sensor bounds and a finite, non-negative recording window.
func validateHeader(w, h int, duration float64) error {
	if w <= 0 || h <= 0 || w > 1<<14 || h > 1<<14 {
		return fmt.Errorf("dvs: implausible sensor size %dx%d", w, h)
	}
	if math.IsNaN(duration) || math.IsInf(duration, 0) || duration < 0 {
		return fmt.Errorf("dvs: invalid duration %v", duration)
	}
	return nil
}

// validateEvent checks one event against a w×h sensor and a recording
// window of duration ms — the per-event subset of Stream.Validate,
// shared by the in-memory path, StreamReader and StreamWriter.
func validateEvent(e Event, w, h int, duration float64) error {
	if e.X < 0 || e.X >= w || e.Y < 0 || e.Y >= h {
		return fmt.Errorf("at (%d,%d) off the %dx%d sensor", e.X, e.Y, w, h)
	}
	if e.P != 1 && e.P != -1 {
		return fmt.Errorf("polarity %d", e.P)
	}
	if math.IsNaN(e.T) || e.T < 0 || e.T > duration {
		return fmt.Errorf("time %v outside [0,%v]", e.T, duration)
	}
	return nil
}

// putEvent encodes one event record into rec.
func putEvent(rec []byte, e Event) {
	binary.LittleEndian.PutUint16(rec[0:], uint16(e.X))
	binary.LittleEndian.PutUint16(rec[2:], uint16(e.Y))
	binary.LittleEndian.PutUint16(rec[4:], uint16(int16(e.P)))
	binary.LittleEndian.PutUint16(rec[6:], 0)
	binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(e.T))
}

// getEvent decodes one event record from rec.
func getEvent(rec []byte) Event {
	return Event{
		X: int(binary.LittleEndian.Uint16(rec[0:])),
		Y: int(binary.LittleEndian.Uint16(rec[2:])),
		P: int8(int16(binary.LittleEndian.Uint16(rec[4:]))),
		T: math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])),
	}
}

// StreamReaderOptions configure a StreamReader.
type StreamReaderOptions struct {
	// ReorderWindow is the capacity (in events) of the bounded reorder
	// buffer. 0 (the default) emits events exactly in file order, like
	// ReadAEDAT. With K > 0 the reader emits the flow in timestamp
	// order as long as no event is displaced more than K positions from
	// its sorted place; a larger displacement is an error.
	ReorderWindow int
}

// StreamReader decodes an AEDAT container incrementally: the header is
// read and validated at construction, events are handed out in
// caller-sized chunks with every record validated. Reset reopens it on
// the next recording with the same read buffer and reorder buffer, so
// a reader reused across recordings allocates nothing once warm.
type StreamReader struct {
	br      *bufio.Reader
	w, h    int
	dur     float64
	count   uint64
	opts    StreamReaderOptions
	decoded uint64 // records decoded from the container
	hdr     [headerSize]byte
	rec     [eventRecSize]byte
	// The reorder buffer: pend[lo:hi] holds the decoded, not yet
	// emitted events sorted by T, ties in file order, so pend[lo] is
	// always the earliest. It grows with the events decoded, to at most
	// twice ReorderWindow+1, and is kept across Reset.
	pend    []pendingEvent
	lo, hi  int
	lastT   float64
	started bool
	err     error // sticky terminal state (including io.EOF)
}

// NewStreamReader opens a strict (file-order) streaming decoder on r.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	return NewStreamReaderOptions(r, StreamReaderOptions{})
}

// NewStreamReaderOptions opens a streaming decoder with options.
func NewStreamReaderOptions(r io.Reader, opts StreamReaderOptions) (*StreamReader, error) {
	if opts.ReorderWindow < 0 {
		opts.ReorderWindow = 0
	}
	sr := &StreamReader{br: bufio.NewReader(r), opts: opts}
	if err := sr.open(); err != nil {
		return nil, err
	}
	return sr, nil
}

// Reset reopens the reader on the next recording, r: it drops whatever
// the previous recording left unread or buffered, clears the sticky
// error and the ordering state, and reads and validates r's header.
// The read buffer and the reorder buffer are reused, and the options
// are kept. A failed Reset leaves the error sticky.
func (sr *StreamReader) Reset(r io.Reader) error {
	sr.br.Reset(r)
	return sr.open()
}

// open reads and validates the header from br and rearms the decoding
// and ordering state for the recording behind it.
func (sr *StreamReader) open() error {
	sr.w, sr.h, sr.dur, sr.count = 0, 0, 0, 0
	sr.decoded, sr.lo, sr.hi = 0, 0, 0
	sr.lastT, sr.started = 0, false
	sr.err = sr.readHeader()
	return sr.err
}

// readHeader reads the magic and the header fields into sr.hdr — a
// field, so the reads do not allocate — and adopts them once valid.
func (sr *StreamReader) readHeader() error {
	if _, err := io.ReadFull(sr.br, sr.hdr[:8]); err != nil {
		return fmt.Errorf("dvs: reading magic: %w", err)
	}
	if magic := [8]byte(sr.hdr[:8]); magic != aedatMagic {
		return fmt.Errorf("dvs: bad magic %q", magic)
	}
	if _, err := io.ReadFull(sr.br, sr.hdr[8:]); err != nil {
		return fmt.Errorf("dvs: reading header: %w", err)
	}
	w := int(binary.LittleEndian.Uint32(sr.hdr[8:]))
	h := int(binary.LittleEndian.Uint32(sr.hdr[12:]))
	dur := math.Float64frombits(binary.LittleEndian.Uint64(sr.hdr[16:]))
	if err := validateHeader(w, h, dur); err != nil {
		return err
	}
	sr.w, sr.h, sr.dur = w, h, dur
	sr.count = binary.LittleEndian.Uint64(sr.hdr[countOffset:])
	return nil
}

// W returns the sensor width.
func (sr *StreamReader) W() int { return sr.w }

// H returns the sensor height.
func (sr *StreamReader) H() int { return sr.h }

// Duration returns the recording window in milliseconds.
func (sr *StreamReader) Duration() float64 { return sr.dur }

// Count returns the declared event count.
func (sr *StreamReader) Count() uint64 { return sr.count }

// decodeEvent reads and validates the next record from the container.
func (sr *StreamReader) decodeEvent() (Event, error) {
	if _, err := io.ReadFull(sr.br, sr.rec[:]); err != nil {
		return Event{}, fmt.Errorf("dvs: reading event %d: %w", sr.decoded, err)
	}
	e := getEvent(sr.rec[:])
	if err := validateEvent(e, sr.w, sr.h, sr.dur); err != nil {
		return Event{}, fmt.Errorf("dvs: invalid stream: event %d %v", sr.decoded, err)
	}
	sr.decoded++
	return e, nil
}

// pendingEvent is an Event waiting in the reorder buffer, packed into
// 16 bytes instead of 32 — a late event shifts half the memory. The
// packing is lossless: decoded events are validated onto a sensor at
// most 1<<14 pixels wide and high.
type pendingEvent struct {
	T    float64
	X, Y uint16
	P    int8
}

// push inserts a decoded event into the reorder buffer after every
// buffered event whose T is ≤ its T, so ties keep file order. An event
// not earlier than the last buffered one is appended; a late one is
// placed by binary search, shifting the events after it up one slot.
func (sr *StreamReader) push(e Event) {
	if sr.hi == len(sr.pend) {
		sr.makeRoom()
	}
	i := sr.hi
	if i > sr.lo && e.T < sr.pend[i-1].T {
		// pend[i-1].T > e.T: find the first buffered event later than e.
		lo, hi := sr.lo, i-1
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if sr.pend[m].T > e.T {
				hi = m
			} else {
				lo = m + 1
			}
		}
		i = lo
		copy(sr.pend[i+1:sr.hi+1], sr.pend[i:sr.hi])
	}
	sr.pend[i] = pendingEvent{T: e.T, X: uint16(e.X), Y: uint16(e.Y), P: e.P}
	sr.hi++
}

// makeRoom frees the slot at pend[hi] once hi reaches the end of the
// buffer. When the emitted prefix pend[:lo] is at least as long as the
// buffered run, the run slides to the front — each slide is paid for
// by the events emitted since the last one, O(1) per event amortized.
// Otherwise the buffer doubles. The run never exceeds ReorderWindow+1
// events, so a buffer of twice that always slides: growth stops there,
// and before that it tracks the events actually decoded.
func (sr *StreamReader) makeRoom() {
	run := sr.hi - sr.lo
	if sr.lo > 0 && sr.lo >= run {
		copy(sr.pend, sr.pend[sr.lo:sr.hi])
		sr.lo, sr.hi = 0, run
		return
	}
	n := 2 * len(sr.pend)
	if n == 0 {
		n = 8
	}
	// n is even, so n/2-1 > K is n > 2K+2, written so that neither side
	// overflows however large ReorderWindow is.
	if k := sr.opts.ReorderWindow; n/2-1 > k {
		n = 2*k + 2
	}
	pend := make([]pendingEvent, n)
	copy(pend, sr.pend[sr.lo:sr.hi])
	sr.pend, sr.lo, sr.hi = pend, 0, run
}

// ReadChunk fills buf with the next events of the flow and returns how
// many were written. It returns io.EOF (and 0) once every declared
// event has been emitted; a short container (fewer records than the
// header declared) surfaces as an io.ErrUnexpectedEOF-wrapped error,
// never as a clean EOF. Errors are sticky.
func (sr *StreamReader) ReadChunk(buf []Event) (int, error) {
	if sr.err != nil {
		return 0, sr.err
	}
	if len(buf) == 0 {
		// (0, nil) would spin a drain-until-EOF loop forever; an empty
		// buffer is a caller bug, not a readable state.
		return 0, fmt.Errorf("dvs: ReadChunk with an empty buffer")
	}
	n := 0
	if sr.opts.ReorderWindow == 0 {
		// Strict mode decodes straight into buf: the reorder buffer
		// would always hold exactly one event, and ReadAEDAT rides this
		// path for every whole-file load.
		for n < len(buf) && sr.decoded < sr.count {
			e, err := sr.decodeEvent()
			if err != nil {
				sr.err = err
				return n, err
			}
			buf[n] = e
			n++
		}
		if n == 0 {
			sr.err = io.EOF
			return 0, io.EOF
		}
		return n, nil
	}
	for n < len(buf) {
		// Keep the reorder buffer at capacity: its head is only safe to
		// emit once K later events have been seen (or input ended).
		for sr.decoded < sr.count && sr.hi-sr.lo <= sr.opts.ReorderWindow {
			e, err := sr.decodeEvent()
			if err != nil {
				sr.err = err
				return n, err
			}
			sr.push(e)
		}
		if sr.lo == sr.hi {
			break
		}
		pe := sr.pend[sr.lo]
		e := Event{X: int(pe.X), Y: int(pe.Y), P: pe.P, T: pe.T}
		sr.lo++
		if sr.started && e.T < sr.lastT {
			sr.err = fmt.Errorf("dvs: event at %gms out of order beyond the %d-event reorder window (last emitted %gms)",
				e.T, sr.opts.ReorderWindow, sr.lastT)
			return n, sr.err
		}
		sr.lastT = e.T
		sr.started = true
		buf[n] = e
		n++
	}
	if n == 0 {
		sr.err = io.EOF
		return 0, io.EOF
	}
	return n, nil
}

// StreamWriter encodes an AEDAT container incrementally, validating
// every event against the declared sensor and window. When the sink is
// an io.WriteSeeker the event count may be left open and is backpatched
// on Close; otherwise the exact count must be declared up front
// (NewStreamWriterCount) and Close enforces it.
type StreamWriter struct {
	bw       *bufio.Writer
	ws       io.WriteSeeker // non-nil when the count is backpatchable
	w, h     int
	dur      float64
	declared int64 // -1 = unknown, backpatched on Close
	written  uint64
	rec      [eventRecSize]byte
	closed   bool
	closeErr error // first Close's verdict, sticky across re-Closes
}

// NewStreamWriter opens a streaming encoder with an open event count;
// w must be an io.WriteSeeker (a file) so Close can backpatch the
// count. For non-seekable sinks use NewStreamWriterCount.
func NewStreamWriter(w io.Writer, width, height int, duration float64) (*StreamWriter, error) {
	ws, ok := w.(io.WriteSeeker)
	if !ok {
		return nil, fmt.Errorf("dvs: open event count needs an io.WriteSeeker sink (use NewStreamWriterCount)")
	}
	return newStreamWriter(w, ws, width, height, duration, -1)
}

// NewStreamWriterCount opens a streaming encoder that will write
// exactly count events; Close fails on a mismatch, so a truncated
// producer cannot silently emit a well-formed-looking container.
// Like the open-count writer (and the streaming reader) it accepts any
// count: only the whole-file loader caps what it will materialize.
func NewStreamWriterCount(w io.Writer, width, height int, duration float64, count int) (*StreamWriter, error) {
	if count < 0 {
		return nil, fmt.Errorf("dvs: negative event count %d", count)
	}
	return newStreamWriter(w, nil, width, height, duration, int64(count))
}

func newStreamWriter(w io.Writer, ws io.WriteSeeker, width, height int, duration float64, declared int64) (*StreamWriter, error) {
	if err := validateHeader(width, height, duration); err != nil {
		return nil, err
	}
	sw := &StreamWriter{bw: bufio.NewWriter(w), ws: ws, w: width, h: height, dur: duration, declared: declared}
	var hdr [headerSize]byte
	copy(hdr[:8], aedatMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], uint32(width))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(height))
	binary.LittleEndian.PutUint64(hdr[16:], math.Float64bits(duration))
	if declared >= 0 {
		binary.LittleEndian.PutUint64(hdr[24:], uint64(declared))
	}
	if _, err := sw.bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return sw, nil
}

// WriteEvent appends one validated event to the container.
func (sw *StreamWriter) WriteEvent(e Event) error {
	if sw.closed {
		return fmt.Errorf("dvs: write on closed StreamWriter")
	}
	if err := validateEvent(e, sw.w, sw.h, sw.dur); err != nil {
		return fmt.Errorf("dvs: invalid stream: event %d %v", sw.written, err)
	}
	if sw.declared >= 0 && sw.written >= uint64(sw.declared) {
		return fmt.Errorf("dvs: more than the declared %d events", sw.declared)
	}
	putEvent(sw.rec[:], e)
	if _, err := sw.bw.Write(sw.rec[:]); err != nil {
		return err
	}
	sw.written++
	return nil
}

// WriteEvents appends a chunk of validated events to the container.
func (sw *StreamWriter) WriteEvents(events []Event) error {
	for _, e := range events {
		if err := sw.WriteEvent(e); err != nil {
			return err
		}
	}
	return nil
}

// Written returns how many events have been written so far.
func (sw *StreamWriter) Written() uint64 { return sw.written }

// Close flushes the container and finalizes the event count: with a
// declared count it enforces the exact number written; with an open
// count it seeks back and backpatches the header. A failed Close stays
// failed: re-Closing returns the first verdict, so a deferred retry
// cannot launder a truncated container into a success.
func (sw *StreamWriter) Close() error {
	if sw.closed {
		return sw.closeErr
	}
	sw.closed = true
	sw.closeErr = sw.finalize()
	return sw.closeErr
}

func (sw *StreamWriter) finalize() error {
	if err := sw.bw.Flush(); err != nil {
		return err
	}
	if sw.declared >= 0 {
		if sw.written != uint64(sw.declared) {
			return fmt.Errorf("dvs: wrote %d events, declared %d", sw.written, sw.declared)
		}
		return nil
	}
	if _, err := sw.ws.Seek(countOffset, io.SeekStart); err != nil {
		return fmt.Errorf("dvs: backpatching event count: %w", err)
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], sw.written)
	if _, err := sw.ws.Write(cnt[:]); err != nil {
		return fmt.Errorf("dvs: backpatching event count: %w", err)
	}
	if _, err := sw.ws.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("dvs: backpatching event count: %w", err)
	}
	return nil
}
