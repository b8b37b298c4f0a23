package stream

import (
	"bytes"
	"testing"

	"repro/internal/defense"
	"repro/internal/dvs"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// The bounded-memory / zero-alloc contract of the pipeline, asserted
// two ways: the per-window hot path (windowed voxelization + batched
// arena inference) performs zero allocations once warm, and so does a
// whole warm Run — the reader, the windower and the AQF filter are
// Reset, not rebuilt, per recording — so memory stays O(window) however
// long the flow runs and however many recordings a pipeline serves.

// longStream concatenates segments time-shifted gesture recordings
// into one continuous flow (the generator normalizes motion to the
// recording length, so a single long recording would not carry more
// events; a concatenation does — event count scales with duration).
func longStream(segments int, segMS float64, seed uint64) *dvs.Stream {
	cfg := dvs.DefaultGestureConfig()
	cfg.W, cfg.H = 16, 16
	cfg.Duration = segMS
	cfg.BlobR = 2
	segs := make([]*dvs.Stream, segments)
	for k := range segs {
		segs[k] = dvs.GenerateGesture(k%dvs.GestureClasses, cfg, rng.New(seed+uint64(k)))
	}
	out, err := dvs.ConcatStreams(segs...)
	if err != nil {
		panic(err)
	}
	return out
}

// TestStreamWindowZeroAllocs pins the steady-state per-window work to
// zero allocations: VoxelizeWindowInto into recycled frames plus
// PredictBatchInto through a warm arena.
func TestStreamWindowZeroAllocs(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	steps := 5
	net := testNet(steps)
	s := longStream(1, 200, 51)
	windows := dvs.SplitWindows(s, 50)

	frames := make([]*tensor.Tensor, steps)
	for i := range frames {
		frames[i] = tensor.New(2, 16, 16)
	}
	samples := [][]*tensor.Tensor{frames}
	out := make([]int, 1)

	window := func(i int) {
		sub := windows[i%len(windows)]
		dvs.VoxelizeWindowInto(frames, sub.Events, 16, 16, 0, 50)
		net.PredictBatchInto(samples, out)
	}
	window(0) // warm the arena and the frame buffers

	i := 0
	if allocs := testing.AllocsPerRun(50, func() {
		window(i)
		i++
	}); allocs != 0 {
		t.Fatalf("steady-state window performed %g allocs, want 0", allocs)
	}
}

// TestStreamReadChunkZeroAllocs pins the decode side: once a reader is
// warm, draining chunks allocates nothing (the record slab and the
// reorder buffer are recycled).
func TestStreamReadChunkZeroAllocs(t *testing.T) {
	s := longStream(10, 400, 52)
	var buf bytes.Buffer
	if err := dvs.WriteAEDAT(&buf, s); err != nil {
		t.Fatal(err)
	}
	sr, err := dvs.NewStreamReaderOptions(bytes.NewReader(buf.Bytes()), dvs.StreamReaderOptions{ReorderWindow: 8})
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]dvs.Event, 64)
	if _, err := sr.ReadChunk(chunk); err != nil { // warm the reorder buffer
		t.Fatal(err)
	}
	reads := 0
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := sr.ReadChunk(chunk); err != nil {
			t.Fatalf("read %d: %v", reads, err)
		}
		reads++
	}); allocs != 0 {
		t.Fatalf("steady-state ReadChunk performed %g allocs, want 0", allocs)
	}
}

// TestPipelineMemoryBounded is the growth gate: one warm Pipeline runs
// a short and a 4× longer recording (both several times larger than
// the chunk buffer), in strict mode and behind the serve default's
// 1024-event reorder buffer, unfiltered and through the incremental AQF
// at two quantization steps, and no Run may allocate at all — every
// per-window buffer is recycled and the reader, the windower and the
// filter are Reset per recording, so memory cannot grow with recording
// length or with the number of recordings served. One bytes.Reader is
// re-pointed per Run so the measured closure itself does not allocate.
// The two-worker configuration fans each flush out over the shared
// pool, so it also pins the pool's dispatch to zero allocations.
func TestPipelineMemoryBounded(t *testing.T) {
	defer tensor.SetWorkers(0)
	steps := 4
	net := testNet(steps)
	long := longStream(8, 200, 53)
	shortRec := encode(t, longStream(2, 200, 53))
	longRec := encode(t, long)
	if len(longRec) < 3*len(shortRec) {
		t.Fatalf("long recording (%dB) not meaningfully longer than short (%dB)", len(longRec), len(shortRec))
	}
	aqf0, aqf15 := defense.DefaultAQFParams(0), defense.DefaultAQFParams(0.015)

	for _, cfg := range []struct {
		workers, reorder int
		aqf              *defense.AQFParams
	}{
		{1, 0, nil}, {1, 1024, nil}, {2, 1024, nil},
		{1, 0, &aqf0}, {1, 1024, &aqf0}, {2, 1024, &aqf0},
		{1, 0, &aqf15}, {1, 1024, &aqf15}, {2, 1024, &aqf15},
	} {
		tensor.SetWorkers(cfg.workers)
		p, err := NewPipeline(net, Options{WindowMS: 50, Steps: steps, Workers: cfg.workers, Batch: 2, ChunkEvents: 256, ReorderWindow: cfg.reorder, AQF: cfg.aqf})
		if err != nil {
			t.Fatal(err)
		}
		classes, events := 0, 0
		emit := func(r Result) error { classes++; events += r.Events; return nil }
		rd := bytes.NewReader(nil)
		run := func(data []byte) float64 {
			return testing.AllocsPerRun(5, func() {
				rd.Reset(data)
				if err := p.Run(rd, emit); err != nil {
					t.Fatal(err)
				}
			})
		}
		// Warm with the long recording so every slot's event buffer, the
		// windower and the reorder buffer reach their high-water marks
		// before measuring.
		rd.Reset(longRec)
		if err := p.Run(rd, emit); err != nil {
			t.Fatal(err)
		}
		if cfg.aqf != nil && events >= len(long.Events) {
			t.Fatalf("vacuous: AQF %+v kept all %d events of the long recording", *cfg.aqf, events)
		}

		for _, rec := range []struct {
			name string
			data []byte
		}{{"short (8 windows)", shortRec}, {"long (32 windows)", longRec}} {
			if allocs := run(rec.data); allocs != 0 {
				t.Fatalf("Workers %d, ReorderWindow %d, AQF %+v: warm Run of the %s recording performed %g allocs, want 0",
					cfg.workers, cfg.reorder, cfg.aqf, rec.name, allocs)
			}
		}
		if classes == 0 {
			t.Fatal("vacuous: no windows were classified")
		}
	}
}
