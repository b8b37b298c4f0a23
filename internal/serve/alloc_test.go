package serve

import (
	"io"
	"testing"

	"repro/internal/dvs"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/tensor"
)

// The serving layer inherits the pipeline's zero-alloc window contract
// and must not spend it: drawing a clone from the shared pool,
// classifying a window and framing the result onto the wire may not
// touch the allocator once warm. (The session's pipeline, with its
// reader and windower, is built once per session and Reset — not
// rebuilt — per recording, so its setup is amortized over every window
// the session serves.)

// serveWindowBody builds the steady-state per-window serving closure:
// shared slot acquire → voxelize → batched arena inference via a
// pooled clone → pool releases → result framing + flush. It mirrors
// exactly what a session does per window inside serveSession/classify.
func serveWindowBody(t testing.TB, srv *Server) func(i int) {
	cfg := dvs.DefaultGestureConfig()
	cfg.W, cfg.H = 16, 16
	cfg.Duration = 400
	s := dvs.GenerateGesture(4, cfg, rng.New(8))
	const windowMS = 50.0
	windows := dvs.SplitWindows(s, windowMS)
	steps := srv.Master().Cfg.Steps
	out := make([]int, 1)
	fw := newFrameWriter(io.Discard)
	rbuf := make([]byte, 0, resultSize)
	return func(i int) {
		w := windows[i%len(windows)]
		bs := srv.Slots().AcquireSlot()
		frames := bs.Frames(0, steps, 16, 16)
		dvs.VoxelizeWindowInto(frames, w.Events, 16, 16, 0, windowMS)
		samples := append(bs.Samples(), frames)
		clone := srv.AcquireClone()
		clone.PredictBatchInto(samples, out)
		srv.ReleaseClone(clone)
		srv.Slots().ReleaseSlot(bs)
		rbuf = appendResult(rbuf[:0], stream.Result{Window: i, StartMS: float64(i) * windowMS, Events: len(w.Events), Class: out[0]})
		if err := fw.write(frameResult, rbuf); err != nil {
			t.Fatal(err)
		}
		if err := fw.flush(); err != nil {
			t.Fatal(err)
		}
	}
}

// serveCreditWindowBody builds the credit-flow per-window closure the
// session writer runs once a result leaves the pipeline: ring staging,
// credit consumption (the CAS fast path), result framing + flush, the
// atomic counters and the latency histogram. The ring is buffered and
// drained on the same goroutine so the measurement is deterministic —
// the goroutine handoff itself is scheduling, not allocation.
func serveCreditWindowBody(t testing.TB, srv *Server, ss *session) func(i int) {
	fw := newFrameWriter(io.Discard)
	rbuf := make([]byte, 0, resultSize)
	m := srv.Metrics()
	return func(i int) {
		ss.cmds <- wireCmd{res: stream.Result{Window: i, StartMS: float64(i) * 50, Events: 40, Class: 1}}
		m.ResultsBuffered.Add(1)
		cmd := <-ss.cmds
		if err := ss.awaitCredit(); err != nil {
			t.Fatal(err)
		}
		rbuf = appendResult(rbuf[:0], cmd.res)
		if err := fw.write(frameResult, rbuf); err != nil {
			t.Fatal(err)
		}
		if err := fw.flush(); err != nil {
			t.Fatal(err)
		}
		m.ResultsBuffered.Add(-1)
		m.ResultsSent.Add(1)
		srv.ObserveRound(1, int64(1000+i))
	}
}

// newTestSession builds a session skeleton without a connection or a
// writer goroutine — the synchronous form the zero-alloc gate drives.
func newTestSession(srv *Server) *session {
	return &session{
		srv:        srv,
		topup:      make(chan struct{}, 1),
		cmds:       make(chan wireCmd, srv.opts.ResultWindow),
		quit:       make(chan struct{}),
		writerDone: make(chan struct{}),
	}
}

func TestServeWindowZeroAllocs(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	master := testNet(8, 71)
	srv, err := NewServer(master, ServerOptions{
		Pipeline: stream.Options{WindowMS: 50, Steps: 8}, PoolSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	body := serveWindowBody(t, srv)
	body(0) // warm the arena, frames and frame buffers
	i := 1
	allocs := testing.AllocsPerRun(100, func() {
		body(i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("serve window path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestServeCreditWindowZeroAllocs pins the credit-flow additions to
// the per-window serving path — ring staging, the credit CAS, the
// metrics counters and the latency histogram — at zero allocations:
// backpressure accounting must not spend the zero-alloc contract it
// protects.
func TestServeCreditWindowZeroAllocs(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	master := testNet(8, 71)
	srv, err := NewServer(master, ServerOptions{
		Pipeline: stream.Options{WindowMS: 50, Steps: 8}, PoolSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ss := newTestSession(srv)
	ss.addCredits(1 << 20) // never stall: the gate measures the fast path
	body := serveCreditWindowBody(t, srv, ss)
	body(0) // warm the frame buffers
	i := 1
	allocs := testing.AllocsPerRun(100, func() {
		body(i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("serve credit path allocates %.1f allocs/op, want 0", allocs)
	}
}
