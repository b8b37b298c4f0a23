package dvs

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// randomStream builds a small valid stream with n random events.
func randomStream(r *rng.RNG, n int) *Stream {
	s := &Stream{W: 16, H: 16, Duration: 100}
	for i := 0; i < n; i++ {
		p := int8(1)
		if r.Bernoulli(0.5) {
			p = -1
		}
		s.Events = append(s.Events, Event{X: r.Intn(16), Y: r.Intn(16), P: p, T: r.Float64() * 100})
	}
	return s
}

// readAllChunks drains a StreamReader with the given chunk size.
func readAllChunks(t *testing.T, sr *StreamReader, chunk int) []Event {
	t.Helper()
	var out []Event
	buf := make([]Event, chunk)
	for {
		n, err := sr.ReadChunk(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("ReadChunk: %v", err)
		}
	}
}

// TestStreamWriterReaderRoundTrip is the property test: whatever the
// stream and chunk size, StreamWriter→StreamReader reproduces the
// events exactly, matching the whole-stream WriteAEDAT/ReadAEDAT pair.
func TestStreamWriterReaderRoundTrip(t *testing.T) {
	if err := quick.Check(func(seed uint64, chunkRaw uint8) bool {
		r := rng.New(seed)
		s := randomStream(r, r.Intn(200))
		chunk := int(chunkRaw)%64 + 1

		var buf bytes.Buffer
		sw, err := NewStreamWriterCount(&buf, s.W, s.H, s.Duration, len(s.Events))
		if err != nil {
			return false
		}
		// Write in two pieces to cross the writer's internal buffering.
		half := len(s.Events) / 2
		if sw.WriteEvents(s.Events[:half]) != nil || sw.WriteEvents(s.Events[half:]) != nil {
			return false
		}
		if sw.Close() != nil {
			return false
		}

		// The streaming bytes must be exactly WriteAEDAT's bytes.
		var whole bytes.Buffer
		if err := WriteAEDAT(&whole, s); err != nil {
			return false
		}
		if !bytes.Equal(buf.Bytes(), whole.Bytes()) {
			return false
		}

		sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		if sr.W() != s.W || sr.H() != s.H || sr.Duration() != s.Duration || sr.Count() != uint64(len(s.Events)) {
			return false
		}
		got := make([]Event, 0, len(s.Events))
		cb := make([]Event, chunk)
		for {
			n, err := sr.ReadChunk(cb)
			got = append(got, cb[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				return false
			}
		}
		if len(got) != len(s.Events) {
			return false
		}
		for i := range got {
			if got[i] != s.Events[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamWriterBackpatch exercises the open-count path: a seekable
// sink gets its header count backpatched on Close, and the file reads
// back intact.
func TestStreamWriterBackpatch(t *testing.T) {
	s := randomStream(rng.New(5), 37)
	path := filepath.Join(t.TempDir(), "bp.aedat")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewStreamWriter(f, s.W, s.H, s.Duration)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range s.Events {
		if err := sw.WriteEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := LoadAEDAT(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(s.Events) {
		t.Fatalf("backpatched file has %d events, want %d", len(got.Events), len(s.Events))
	}
	for i := range got.Events {
		if got.Events[i] != s.Events[i] {
			t.Fatalf("event %d: %+v vs %+v", i, got.Events[i], s.Events[i])
		}
	}
}

// TestStreamWriterEnforcesContract pins the writer's error paths: a
// non-seekable sink with an open count, a declared-count mismatch, an
// overflow past the declared count, and invalid events.
func TestStreamWriterEnforcesContract(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewStreamWriter(&buf, 8, 8, 10); err == nil {
		t.Fatal("open count on a non-seekable sink must fail")
	}

	sw, err := NewStreamWriterCount(&buf, 8, 8, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteEvent(Event{X: 1, Y: 1, P: 1, T: 5}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err == nil {
		t.Fatal("short write must fail Close")
	}

	buf.Reset()
	sw, _ = NewStreamWriterCount(&buf, 8, 8, 10, 1)
	if err := sw.WriteEvent(Event{X: 1, Y: 1, P: 1, T: 5}); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteEvent(Event{X: 2, Y: 2, P: 1, T: 6}); err == nil {
		t.Fatal("writing past the declared count must fail")
	}

	buf.Reset()
	sw, _ = NewStreamWriterCount(&buf, 8, 8, 10, 1)
	for _, bad := range []Event{
		{X: 8, Y: 0, P: 1, T: 1},  // off sensor
		{X: 0, Y: 0, P: 0, T: 1},  // bad polarity
		{X: 0, Y: 0, P: 1, T: 11}, // past the window
		{X: 0, Y: 0, P: 1, T: -1}, // before the window
	} {
		if err := sw.WriteEvent(bad); err == nil {
			t.Fatalf("invalid event %+v must fail", bad)
		}
	}

	if _, err := NewStreamWriterCount(&bytes.Buffer{}, 0, 8, 10, 0); err == nil {
		t.Fatal("zero-width sensor must fail")
	}

	// A failed Close stays failed: re-Closing (the deferred-Close
	// pattern) must not launder a short container into a success.
	buf.Reset()
	sw, _ = NewStreamWriterCount(&buf, 8, 8, 10, 3)
	first := sw.Close()
	if first == nil {
		t.Fatal("short write must fail Close")
	}
	if again := sw.Close(); again != first {
		t.Fatalf("re-Close returned %v, want the sticky %v", again, first)
	}
}

// TestStreamReaderRejectsHostileInput pins the reader's error paths:
// bad magic, implausible header, truncated payloads and corrupt
// records, with errors staying sticky.
func TestStreamReaderRejectsHostileInput(t *testing.T) {
	s := randomStream(rng.New(9), 20)
	var buf bytes.Buffer
	if err := WriteAEDAT(&buf, s); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	if _, err := NewStreamReader(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("short magic must fail")
	}
	bad := append([]byte(nil), valid...)
	bad[0] = 'Z'
	if _, err := NewStreamReader(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic must fail")
	}

	// Truncation mid-payload: the reader must report an error, never a
	// clean EOF, and the error must stick.
	trunc := valid[:len(valid)-9]
	sr, err := NewStreamReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	cb := make([]Event, 7)
	var lastErr error
	for i := 0; i < 100; i++ {
		_, lastErr = sr.ReadChunk(cb)
		if lastErr != nil {
			break
		}
	}
	if lastErr == nil || lastErr == io.EOF {
		t.Fatalf("truncated payload ended with %v, want a hard error", lastErr)
	}
	if _, err := sr.ReadChunk(cb); err != lastErr {
		t.Fatalf("error did not stick: %v vs %v", err, lastErr)
	}

	// A corrupt record (off-sensor coordinates) must fail validation.
	rec := append([]byte(nil), valid...)
	rec[headerSize] = 0xff
	rec[headerSize+1] = 0xff
	sr, err = NewStreamReader(bytes.NewReader(rec))
	if err != nil {
		t.Fatal(err)
	}
	ok := false
	for i := 0; i < 100; i++ {
		if _, err := sr.ReadChunk(cb); err != nil {
			if err != io.EOF {
				ok = true
			}
			break
		}
	}
	if !ok {
		t.Fatal("corrupt record slipped through validation")
	}
}

// TestStreamReaderUncappedCount pins the cap split: a header declaring
// more events than the whole-file loader will materialize still OPENS
// through the streaming reader (its memory is caller-bounded — serving
// recordings past the cap is its purpose), while ReadAEDAT refuses to
// preallocate for it. The truncated payload then fails record decode,
// never a clean EOF.
func TestStreamReaderUncappedCount(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewStreamWriterCount(&buf, 8, 8, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteEvent(Event{X: 1, Y: 1, P: 1, T: 5}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Rewrite the count field to 2^40 events.
	huge := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(huge[countOffset:], 1<<40)

	if _, err := ReadAEDAT(bytes.NewReader(huge)); err == nil {
		t.Fatal("ReadAEDAT must refuse to materialize 2^40 events")
	}
	sr, err := NewStreamReader(bytes.NewReader(huge))
	if err != nil {
		t.Fatalf("streaming reader must open an over-cap header: %v", err)
	}
	if sr.Count() != 1<<40 {
		t.Fatalf("Count() = %d, want 2^40", sr.Count())
	}
	cb := make([]Event, 4)
	n, err := sr.ReadChunk(cb)
	if n != 1 || err == nil || err == io.EOF {
		t.Fatalf("truncated over-cap stream: n=%d err=%v, want the one real event then a hard error", n, err)
	}
}

// TestStreamReaderReorder pins the bounded reorder buffer: a flow with
// displacement ≤ K comes out exactly time-sorted (stable on ties), and
// displacement beyond K is a loud error. FuzzStreamReaderReorderOracle
// pins the same buffer against a naive reference.
func TestStreamReaderReorder(t *testing.T) {
	s := randomStream(rng.New(13), 120)
	s.Sort()
	want := append([]Event(nil), s.Events...)

	// Displace within a bound of 5.
	disordered := s.Clone()
	r := rng.New(14)
	for k := 0; k < 80; k++ {
		i := r.Intn(len(disordered.Events) - 5)
		j := i + 1 + r.Intn(5)
		disordered.Events[i], disordered.Events[j] = disordered.Events[j], disordered.Events[i]
	}
	var buf bytes.Buffer
	if err := WriteAEDAT(&buf, disordered); err != nil {
		t.Fatal(err)
	}

	sr, err := NewStreamReaderOptions(bytes.NewReader(buf.Bytes()), StreamReaderOptions{ReorderWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	got := readAllChunks(t, sr, 11)
	if len(got) != len(want) {
		t.Fatalf("reordered read returned %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %+v, want %+v (not time-sorted)", i, got[i], want[i])
		}
	}

	// Displacement beyond the window: the earliest event arrives last.
	// (An event arriving too *early* any distance ahead just waits in
	// the buffer; arriving late is what a bounded buffer cannot absorb.)
	hostile := s.Clone()
	first := hostile.Events[0]
	copy(hostile.Events, hostile.Events[1:])
	hostile.Events[len(hostile.Events)-1] = first
	buf.Reset()
	if err := WriteAEDAT(&buf, hostile); err != nil {
		t.Fatal(err)
	}
	sr, err = NewStreamReaderOptions(bytes.NewReader(buf.Bytes()), StreamReaderOptions{ReorderWindow: 4})
	if err != nil {
		t.Fatal(err)
	}
	cb := make([]Event, 8)
	var rerr error
	for i := 0; i < 100; i++ {
		if _, rerr = sr.ReadChunk(cb); rerr != nil {
			break
		}
	}
	if rerr == nil || rerr == io.EOF {
		t.Fatalf("displacement beyond the reorder window ended with %v, want a hard error", rerr)
	}
}

// TestStreamReaderMatchesReadAEDAT pins the chunked reader to the
// whole-stream loader on the same bytes, at chunk sizes that do and do
// not divide the event count.
func TestStreamReaderMatchesReadAEDAT(t *testing.T) {
	s := GenerateGesture(6, DefaultGestureConfig(), rng.New(17))
	var buf bytes.Buffer
	if err := WriteAEDAT(&buf, s); err != nil {
		t.Fatal(err)
	}
	want, err := ReadAEDAT(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 3, 1000, len(s.Events) + 5} {
		sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		got := readAllChunks(t, sr, chunk)
		if len(got) != len(want.Events) {
			t.Fatalf("chunk %d: %d events, want %d", chunk, len(got), len(want.Events))
		}
		for i := range got {
			if got[i] != want.Events[i] {
				t.Fatalf("chunk %d event %d differs", chunk, i)
			}
		}
	}
}
