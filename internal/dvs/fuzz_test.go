package dvs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// FuzzReadAEDAT throws arbitrary bytes at the stream parser. The
// contract the batch pipelines rely on: ReadAEDAT either returns an
// error or a fully valid stream — one that Validate accepts and that
// voxelization and counting can process without panicking, whatever the
// bytes claimed (out-of-bounds coordinates, NaN/negative timestamps,
// bogus polarities, absurd counts).
func FuzzReadAEDAT(f *testing.F) {
	// Seed with a genuine (short) recording...
	cfg := DefaultGestureConfig()
	cfg.Duration = 50 // keep the corpus entry small so mutation stays fast
	s := GenerateGesture(3, cfg, rng.New(1))
	var buf bytes.Buffer
	if err := WriteAEDAT(&buf, s); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	// ...a truncation, a corrupted header and a corrupted event record.
	f.Add(valid[:len(valid)/2])
	hdr := append([]byte(nil), valid...)
	hdr[9] = 0xff // width
	f.Add(hdr)
	rec := append([]byte(nil), valid...)
	for i := 32; i < 48 && i < len(rec); i++ {
		rec[i] = 0xee // first event record
	}
	f.Add(rec)

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ReadAEDAT(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := st.Validate(); verr != nil {
			t.Fatalf("ReadAEDAT accepted a stream Validate rejects: %v", verr)
		}
		// The event-domain batch paths must be able to consume any
		// accepted stream.
		frames := st.Voxelize(4)
		for _, fr := range frames {
			for _, v := range fr.Data {
				if v != 0 && v != 1 {
					t.Fatalf("voxel value %v outside {0,1}", v)
				}
			}
		}
		st.EventCountGrid()
		st.Sort()

		// Round-trip: a valid stream serializes and re-parses intact.
		var out bytes.Buffer
		if err := WriteAEDAT(&out, st); err != nil {
			t.Fatalf("re-serializing a valid stream: %v", err)
		}
		back, err := ReadAEDAT(&out)
		if err != nil {
			t.Fatalf("re-parsing a valid stream: %v", err)
		}
		if len(back.Events) != len(st.Events) || back.W != st.W || back.H != st.H {
			t.Fatal("round-trip changed the stream")
		}
	})
}

// FuzzStreamReader throws arbitrary bytes at the chunked decoder and
// pins it to the whole-stream loader: on the same bytes, StreamReader
// (at several chunk sizes, with and without a reorder buffer) and
// ReadAEDAT must either both fail or both succeed with identical
// headers and — chunk size notwithstanding — identical events.
// Truncated chunks, hostile headers and corrupt records land here via
// the seeds and mutation.
func FuzzStreamReader(f *testing.F) {
	cfg := DefaultGestureConfig()
	cfg.Duration = 50
	s := GenerateGesture(5, cfg, rng.New(2))
	var buf bytes.Buffer
	if err := WriteAEDAT(&buf, s); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid, uint8(16))
	f.Add(valid[:len(valid)/3], uint8(1)) // truncated mid-payload
	hdr := append([]byte(nil), valid...)
	hdr[12], hdr[13] = 0xff, 0xff // height 65535 > the 1<<14 sensor cap
	f.Add(hdr, uint8(4))
	rec := append([]byte(nil), valid...)
	for i := headerSize; i < headerSize+eventRecSize && i < len(rec); i++ {
		rec[i] = 0xab // first event record
	}
	f.Add(rec, uint8(64))

	f.Fuzz(func(t *testing.T, data []byte, chunkRaw uint8) {
		whole, wholeErr := ReadAEDAT(bytes.NewReader(data))
		chunk := int(chunkRaw)%128 + 1
		for _, reorder := range []int{0, 8} {
			sr, err := NewStreamReaderOptions(bytes.NewReader(data), StreamReaderOptions{ReorderWindow: reorder})
			if err != nil {
				if wholeErr == nil {
					t.Fatalf("StreamReader rejected a header ReadAEDAT accepts: %v", err)
				}
				continue
			}
			if wholeErr != nil && sr.Count() > 0 {
				// ReadAEDAT fails on some record; the chunked read must
				// fail too (the reorder buffer may reject extra inputs
				// for ordering, but never accept what validation
				// rejects).
				drainExpectError(t, sr, chunk)
				continue
			}
			var got []Event
			buf := make([]Event, chunk)
			failed := false
			for {
				n, err := sr.ReadChunk(buf)
				got = append(got, buf[:n]...)
				if err == io.EOF {
					break
				}
				if err != nil {
					failed = true
					break
				}
			}
			if wholeErr != nil {
				if !failed && len(got) > 0 {
					t.Fatalf("StreamReader emitted %d events from a stream ReadAEDAT rejects (%v)", len(got), wholeErr)
				}
				continue
			}
			if failed && reorder == 0 {
				t.Fatalf("strict StreamReader failed on a stream ReadAEDAT accepts")
			}
			if failed {
				continue // disorder beyond the reorder window is a legal refusal
			}
			if sr.W() != whole.W || sr.H() != whole.H || sr.Duration() != whole.Duration {
				t.Fatalf("header mismatch: %dx%d/%v vs %dx%d/%v", sr.W(), sr.H(), sr.Duration(), whole.W, whole.H, whole.Duration)
			}
			if len(got) != len(whole.Events) {
				t.Fatalf("chunked read returned %d events, ReadAEDAT %d", len(got), len(whole.Events))
			}
			if reorder == 0 {
				for i := range got {
					if got[i] != whole.Events[i] {
						t.Fatalf("event %d: chunked %+v vs whole %+v", i, got[i], whole.Events[i])
					}
				}
			} else {
				// With a reorder buffer the multiset is preserved and
				// the output is time-sorted.
				for i := 1; i < len(got); i++ {
					if got[i].T < got[i-1].T {
						t.Fatalf("reorder output not sorted at %d", i)
					}
				}
			}
		}
	})
}

func drainExpectError(t *testing.T, sr *StreamReader, chunk int) {
	t.Helper()
	buf := make([]Event, chunk)
	for i := 0; i < 1<<22; i++ {
		_, err := sr.ReadChunk(buf)
		if err == io.EOF {
			t.Fatal("StreamReader cleanly drained a stream ReadAEDAT rejects")
		}
		if err != nil {
			return
		}
	}
	t.Fatal("StreamReader never terminated")
}

// FuzzStreamRoundTrip drives StreamWriter→StreamReader from fuzzed
// event fields: whatever the writer accepts must decode back exactly,
// and whatever it rejects must be exactly what Validate rejects.
func FuzzStreamRoundTrip(f *testing.F) {
	f.Add(uint16(16), uint16(16), 100.0, int32(3), int32(5), int8(1), 40.0)
	f.Add(uint16(1), uint16(1), 0.0, int32(0), int32(0), int8(-1), 0.0)
	f.Add(uint16(64), uint16(2), 7.5, int32(-2), int32(70000), int8(3), math.NaN())
	f.Fuzz(func(t *testing.T, w, h uint16, dur float64, x, y int32, p int8, tm float64) {
		width, height := int(w%256)+1, int(h%256)+1
		e := Event{X: int(x), Y: int(y), P: p, T: tm}
		var buf bytes.Buffer
		sw, err := NewStreamWriterCount(&buf, width, height, dur, 1)
		if err != nil {
			// Header rejected: must be a duration Validate rejects too
			// (sensor dims are bounded valid by construction).
			if verr := (&Stream{W: width, H: height, Duration: dur}).Validate(); verr == nil {
				t.Fatalf("writer rejected a header Validate accepts: %v", err)
			}
			return
		}
		werr := sw.WriteEvent(e)
		verr := (&Stream{W: width, H: height, Duration: dur, Events: []Event{e}}).Validate()
		if (werr == nil) != (verr == nil) {
			t.Fatalf("writer verdict %v, Validate verdict %v", werr, verr)
		}
		if werr != nil {
			return
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := ReadAEDAT(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading a writer-accepted stream: %v", err)
		}
		if len(got.Events) != 1 || got.Events[0] != e {
			t.Fatalf("round trip changed the event: %+v", got.Events)
		}
		if got.W != width || got.H != height || got.Duration != dur {
			t.Fatalf("round trip changed the header")
		}
	})
}

// FuzzStreamConstruction builds streams directly from hostile field
// values and checks the Validate / processing contract: whatever the
// fields, Voxelize and EventCountGrid never panic, and Validate's
// verdict is consistent with the event actually landing in a frame.
func FuzzStreamConstruction(f *testing.F) {
	f.Add(uint16(32), uint16(32), int32(5), int32(5), int8(1), 10.0, 100.0)
	f.Add(uint16(1), uint16(1), int32(-1), int32(70000), int8(0), math.NaN(), math.Inf(1))
	f.Add(uint16(8), uint16(8), int32(7), int32(0), int8(-1), -3.0, 0.0)
	f.Fuzz(func(t *testing.T, w, h uint16, x, y int32, p int8, tm, dur float64) {
		s := &Stream{
			// Sensor dims bounded so frames stay allocatable; event
			// fields arrive raw (off-sensor, NaN, bogus polarity).
			W: int(w%128) + 1, H: int(h%128) + 1, Duration: dur,
			Events: []Event{{X: int(x), Y: int(y), P: p, T: tm}},
		}
		err := s.Validate()
		// Processing must be total regardless of validity (defense in
		// depth for streams assembled in memory, e.g. by attacks).
		frames := s.Voxelize(3)
		s.EventCountGrid()
		if err != nil {
			return
		}
		// A validated event lies on the sensor and lands in exactly one
		// voxel cell (none when the recording window is empty, which
		// Voxelize treats as "no time axis").
		want := 1
		if s.Duration <= 0 {
			want = 0
		}
		lit := 0
		for _, fr := range frames {
			for _, v := range fr.Data {
				if v == 1 {
					lit++
				}
			}
		}
		if lit != want {
			t.Fatalf("valid event lit %d voxel cells, want %d", lit, want)
		}
	})
}

// oracleReader is ReadChunk's fill-and-emit loop with a naive reorder
// buffer standing in for the sorted one: pending holds the buffered
// events in file order and every emit scans it for the earliest under
// (T, file order). Records come from a strict (file-order) reader,
// which shares the record validation and its error texts.
type oracleReader struct {
	src     *StreamReader
	k       int
	pending []Event
	drained bool
	lastT   float64
	started bool
	err     error
}

func (o *oracleReader) ReadChunk(buf []Event) (int, error) {
	if o.err != nil {
		return 0, o.err
	}
	n := 0
	for n < len(buf) {
		for !o.drained && len(o.pending) <= o.k {
			var one [1]Event
			_, err := o.src.ReadChunk(one[:])
			if err == io.EOF {
				o.drained = true
				break
			}
			if err != nil {
				o.err = err
				return n, err
			}
			o.pending = append(o.pending, one[0])
		}
		if len(o.pending) == 0 {
			break
		}
		m := 0
		for i, e := range o.pending {
			if e.T < o.pending[m].T {
				m = i
			}
		}
		e := o.pending[m]
		o.pending = append(o.pending[:m], o.pending[m+1:]...)
		if o.started && e.T < o.lastT {
			o.err = fmt.Errorf("dvs: event at %gms out of order beyond the %d-event reorder window (last emitted %gms)",
				e.T, o.k, o.lastT)
			return n, o.err
		}
		o.lastT, o.started = e.T, true
		buf[n] = e
		n++
	}
	if n == 0 {
		o.err = io.EOF
		return 0, io.EOF
	}
	return n, nil
}

// readResult is one ReadChunk call's outcome.
type readResult struct {
	events []Event
	err    string
}

// drainChunks calls read with a chunk-sized buffer until it reports an
// error (io.EOF included), then once more to see the error stick.
func drainChunks(t *testing.T, read func([]Event) (int, error), chunk int) []readResult {
	t.Helper()
	buf := make([]Event, chunk)
	var out []readResult
	for i := 0; i < 1<<16; i++ {
		n, err := read(buf)
		r := readResult{events: append([]Event(nil), buf[:n]...)}
		if err != nil {
			r.err = err.Error()
			out = append(out, r)
			if n, again := read(buf); n != 0 || again == nil || again.Error() != r.err {
				t.Fatalf("error did not stick: (%d, %v) after %q", n, again, r.err)
			}
			return out
		}
		out = append(out, r)
	}
	t.Fatal("reader never terminated")
	return nil
}

// oracleContainer encodes one event per timestamp on a 16×16 sensor
// over 255 ms, its header declaring `declared` events: fewer than the
// records present stops the read early, more truncates the container.
// Coordinates follow file position, so ties are told apart.
func oracleContainer(ts []byte, declared uint64) []byte {
	var buf bytes.Buffer
	var hdr [headerSize]byte
	copy(hdr[:], aedatMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], 16)
	binary.LittleEndian.PutUint32(hdr[12:], 16)
	binary.LittleEndian.PutUint64(hdr[16:], math.Float64bits(255))
	binary.LittleEndian.PutUint64(hdr[countOffset:], declared)
	buf.Write(hdr[:])
	var rec [eventRecSize]byte
	for i, tm := range ts {
		putEvent(rec[:], Event{X: i % 16, Y: i / 16 % 16, P: int8(1 - 2*(i/256%2)), T: float64(tm)})
		buf.Write(rec[:])
	}
	return buf.Bytes()
}

// poisonRecording fails partway with events still in the reorder
// buffer and bytes still unread, on an 8×8 sensor over 300 ms so a
// Reset must re-read the header. When K+1 fits in the input, its event
// at T=0 arrives K+1 positions late and fails the ordering check;
// otherwise (K = math.MaxInt, which no input can exceed) its header
// declares more events than it holds.
func poisonRecording(t *testing.T, k int) []byte {
	t.Helper()
	var events []Event
	declared := 0
	if k <= 64 {
		for i := 1; i <= k+1; i++ {
			events = append(events, Event{X: i % 8, Y: 1, P: 1, T: float64(i)})
		}
		events = append(events, Event{X: 0, Y: 0, P: -1, T: 0})
		for i := 0; i < 300; i++ {
			events = append(events, Event{X: i % 8, Y: 2, P: 1, T: float64(k + 2 + i%100)})
		}
		declared = len(events)
	} else {
		for i := 0; i < 10; i++ {
			events = append(events, Event{X: i % 8, Y: 3, P: 1, T: float64(10 - i)})
		}
		declared = len(events) + 1
	}
	var buf bytes.Buffer
	sw, err := NewStreamWriterCount(&buf, 8, 8, 300, declared)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteEvents(events); err != nil {
		t.Fatal(err)
	}
	sw.Close() // the truncated form fails its declared-count check on purpose
	return buf.Bytes()
}

// arrivalOrder returns the positions 0..n-1 in arrival order: every
// odd position arrives lag places late (lag 0 is sorted order).
func arrivalOrder(n, lag int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Odd position i overtakes lag more even positions than odd ones.
	key := func(i int) int { return i + 2*lag*(i%2) }
	sort.SliceStable(order, func(a, b int) bool { return key(order[a]) < key(order[b]) })
	return order
}

// FuzzStreamReaderReorderOracle pins the sorted reorder buffer to a
// naive reference (oracleReader) event for event, chunk for chunk and
// error text for error text, over fuzzed timestamps, reorder windows
// K in 1–64 (plus math.MaxInt, which must not overflow or allocate
// ahead of the input) and chunk sizes. Each input runs twice: on a
// fresh reader, and on one Reset after a recording that failed partway
// — so Reset must clear the sticky error, the buffered events and
// bufio's read-ahead, and re-read the header.
func FuzzStreamReaderReorderOracle(f *testing.F) {
	const k = 8
	ramp := func(n int) []byte {
		ts := make([]byte, n)
		for i := range ts {
			ts[i] = byte(i + 1)
		}
		return ts
	}
	// One event exactly K positions late: accepted.
	late := append(ramp(k), 0)
	late = append(late, ramp(20)[k:]...)
	f.Add(late, k, uint8(5), uint64(len(late)))
	// One event K+1 positions late: rejected.
	tooLate := append(ramp(k+1), 0)
	tooLate = append(tooLate, ramp(20)[k+1:]...)
	f.Add(tooLate, k, uint8(3), uint64(len(tooLate)))
	// All timestamps equal: ties must keep file order.
	f.Add(bytes.Repeat([]byte{42}, 50), k, uint8(7), uint64(50))
	// Late events tying buffered ones must land after them.
	ties := []byte{3, 5, 5, 4, 5, 3, 4, 6, 5, 6, 4, 6, 7, 6, 7, 5, 8, 7, 8, 7}
	f.Add(ties, 4, uint8(2), uint64(len(ties)))
	// Descending blocks of K+1: each event lands ahead of its block's
	// earlier arrivals.
	var blocks []byte
	for b := 0; b < 6; b++ {
		for i := k; i >= 0; i-- {
			blocks = append(blocks, byte(b*(k+1)+i))
		}
	}
	f.Add(blocks, k, uint8(11), uint64(len(blocks)))
	// Two interleaved sorted runs, one lagging K-1 positions.
	var lagged []byte
	for _, i := range arrivalOrder(120, k-1) {
		lagged = append(lagged, byte(i*2))
	}
	f.Add(lagged, k, uint8(16), uint64(len(lagged)))
	// K = math.MaxInt on a 10-event recording declaring 2^64-1 events.
	f.Add(ramp(10), math.MaxInt, uint8(4), uint64(math.MaxUint64))

	f.Fuzz(func(t *testing.T, ts []byte, kRaw int, chunkRaw uint8, declared uint64) {
		if len(ts) > 1<<12 {
			ts = ts[:1<<12]
		}
		k := int(uint(kRaw-1)%64) + 1 // 1–64, seeds' K kept as given
		if kRaw == math.MaxInt {
			k = math.MaxInt
		}
		chunk := int(chunkRaw-1)%64 + 1
		data := oracleContainer(ts, declared)
		opts := StreamReaderOptions{ReorderWindow: k}

		strict, err := NewStreamReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		want := drainChunks(t, (&oracleReader{src: strict, k: k}).ReadChunk, chunk)
		check := func(run string, sr *StreamReader) {
			t.Helper()
			if sr.W() != 16 || sr.H() != 16 || sr.Duration() != 255 || sr.Count() != declared {
				t.Fatalf("%s: header %dx%d/%v/%d", run, sr.W(), sr.H(), sr.Duration(), sr.Count())
			}
			got := drainChunks(t, sr.ReadChunk, chunk)
			for i := 0; i < len(got) && i < len(want); i++ {
				g, w := got[i], want[i]
				if g.err != w.err || len(g.events) != len(w.events) {
					t.Fatalf("%s: call %d returned (%d, %q), reference (%d, %q)",
						run, i, len(g.events), g.err, len(w.events), w.err)
				}
				for j := range w.events {
					if g.events[j] != w.events[j] {
						t.Fatalf("%s: call %d event %d is %+v, reference %+v", run, i, j, g.events[j], w.events[j])
					}
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d ReadChunk calls, reference %d", run, len(got), len(want))
			}
		}

		fresh, err := NewStreamReaderOptions(bytes.NewReader(data), opts)
		if err != nil {
			t.Fatal(err)
		}
		check("fresh reader", fresh)

		reused, err := NewStreamReaderOptions(bytes.NewReader(poisonRecording(t, k)), opts)
		if err != nil {
			t.Fatal(err)
		}
		poison := drainChunks(t, reused.ReadChunk, 4)
		if last := poison[len(poison)-1].err; last == io.EOF.Error() {
			t.Fatal("poison recording drained cleanly, want a hard error")
		}
		if err := reused.Reset(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		check("reset reader", reused)
	})
}
