package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/defense"
	"repro/internal/dvs"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/stream"
	"repro/internal/tensor"
)

// testNet builds a small deterministic 16×16 gesture classifier;
// untrained weights are fine for equivalence pinning.
func testNet(steps int, seed uint64) *snn.Network {
	return snn.DVSNet(snn.DefaultConfig(1.0, steps), 16, 16, dvs.GestureClasses, true, rng.New(seed), nil)
}

// testRecording encodes one synthetic 16×16 gesture as AEDAT bytes.
func testRecording(t testing.TB, class int, durMS float64, seed uint64) []byte {
	t.Helper()
	cfg := dvs.DefaultGestureConfig()
	cfg.W, cfg.H = 16, 16
	cfg.Duration = durMS
	cfg.BlobR = 2
	s := dvs.GenerateGesture(class, cfg, rng.New(seed))
	var buf bytes.Buffer
	if err := dvs.WriteAEDAT(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// startSession connects a client to srv over an in-process pipe.
func startSession(srv *Server) (*Client, chan error) {
	return startSessionOptions(srv, ClientOptions{})
}

// startSessionOptions is startSession with explicit client options
// (credit window, deadlines).
func startSessionOptions(srv *Server, o ClientOptions) (*Client, chan error) {
	cs, ss := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.ServeConn(ss) }()
	return NewClientOptions(cs, o), done
}

// standalone is the reference: the same recording through a fresh
// single-recording pipeline on the given network.
func standalone(t testing.TB, net *snn.Network, data []byte, o stream.Options) []stream.Result {
	t.Helper()
	o.Clones = nil
	res, err := stream.Predict(bytes.NewReader(data), net, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameResult compares two window results ignoring the SOPs estimate:
// the server attributes a batch's SOPs proportionally across the
// windows in the batch, so the per-window estimate depends on batch
// composition, while everything else stays bit-exact against a
// standalone reference (which runs without an energy model, SOPs 0).
func sameResult(a, b stream.Result) bool {
	a.SOPs, b.SOPs = 0, 0
	return a == b
}

func assertResults(t testing.TB, ctx string, want, got []stream.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if !sameResult(want[i], got[i]) {
			t.Fatalf("%s: result %d = %+v, want %+v", ctx, i, got[i], want[i])
		}
	}
}

func TestResultFrameRoundTrip(t *testing.T) {
	in := stream.Result{Window: 41, StartMS: 512.25, Events: 7, Class: 10}
	out, err := decodeResult(appendResult(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip %+v, want %+v", out, in)
	}
	if _, err := decodeResult(make([]byte, 3)); err == nil {
		t.Fatal("short result frame accepted")
	}
}

// TestServeSessionMatchesStandalone pins the tentpole equivalence: a
// served session's results — including several recordings back to back
// on one session — are identical to fresh standalone pipeline runs.
func TestServeSessionMatchesStandalone(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	master := testNet(5, 3)
	o := stream.Options{WindowMS: 60, Steps: 5, Batch: 2, ChunkEvents: 64}
	srv, err := NewServer(master, ServerOptions{Pipeline: o, PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	cl, done := startSession(srv)
	defer cl.Close()

	for rec := 0; rec < 3; rec++ {
		data := testRecording(t, rec+1, 250, uint64(10+rec))
		want := standalone(t, master, data, o)
		var got []stream.Result
		n, err := cl.Stream(bytes.NewReader(data), func(r stream.Result) error {
			got = append(got, r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != len(want) {
			t.Fatalf("recording %d: server reported %d windows, want %d", rec, n, len(want))
		}
		assertResults(t, fmt.Sprintf("recording %d", rec), want, got)
	}
	cl.Close()
	if err := <-done; err != nil {
		t.Fatalf("session ended with %v", err)
	}
}

// TestServeSessionWithIncrementalAQF serves the default filter mode:
// session results must match the whole-stream-AQF standalone pipeline.
func TestServeSessionWithIncrementalAQF(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	master := testNet(4, 5)
	p := defense.DefaultAQFParams(0.01)
	o := stream.Options{WindowMS: 50, Steps: 4, AQF: &p, ChunkEvents: 32}
	srv, err := NewServer(master, ServerOptions{Pipeline: o, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	cl, done := startSession(srv)
	defer cl.Close()
	data := testRecording(t, 6, 300, 44)
	want := standalone(t, master, data, o)
	var got []stream.Result
	if _, err := cl.Stream(bytes.NewReader(data), func(r stream.Result) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	assertResults(t, "incremental AQF session", want, got)
	cl.Close()
	<-done
}

// TestServeConcurrentSessions runs several sessions at once against
// one bounded pool and pins every session to its standalone reference.
func TestServeConcurrentSessions(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	master := testNet(4, 7)
	o := stream.Options{WindowMS: 50, Steps: 4, Batch: 2, ChunkEvents: 32}
	srv, err := NewServer(master, ServerOptions{Pipeline: o, MaxSessions: 8, PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}

	const sessions = 6
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		data := testRecording(t, i%dvs.GestureClasses, 220, uint64(100+i))
		want := standalone(t, master, data, o)
		wg.Add(1)
		go func(i int, data []byte, want []stream.Result) {
			defer wg.Done()
			cl, done := startSession(srv)
			defer cl.Close()
			var got []stream.Result
			if _, err := cl.Stream(bytes.NewReader(data), func(r stream.Result) error {
				got = append(got, r)
				return nil
			}); err != nil {
				errs <- fmt.Errorf("session %d: %w", i, err)
				return
			}
			if len(got) != len(want) {
				errs <- fmt.Errorf("session %d: %d results, want %d", i, len(got), len(want))
				return
			}
			for k := range want {
				if !sameResult(got[k], want[k]) {
					errs <- fmt.Errorf("session %d: result %d = %+v, want %+v", i, k, got[k], want[k])
					return
				}
			}
			cl.Close()
			<-done
		}(i, data, want)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := srv.ActiveSessions(); n != 0 {
		t.Fatalf("%d sessions still active after drain", n)
	}
}

// TestServeConcurrentMatchesStandalone is the serve tier's concurrency
// equivalence gate: sessions run at once against one server — each on
// its own pipeline, all drawing clones and frame slots from the same
// two bounded pools — and every one of them must stream results
// bit-identical to the standalone reference. The inputs cover plain
// and AQF-filtered pipeline shapes with six sessions of two recordings
// each, plus a lopsided mix: one ~30-window session with four windows
// per round beside three light ~4-window ones. The uniform and
// lopsided inputs also run behind a reorder buffer (the serve default
// of 1024 events, and 32), which every session's pipeline resets
// between its recordings. The windows-served
// counter must account for exactly the windows streamed, and the
// slot pool's high water must stay within its capacity.
func TestServeConcurrentMatchesStandalone(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(2)
	aqf := defense.DefaultAQFParams(0.01)
	uniform := func(t *testing.T) [][][]byte {
		recs := make([][][]byte, 6)
		for i := range recs {
			for r := 0; r < 2; r++ {
				recs[i] = append(recs[i], testRecording(t, (i+r)%dvs.GestureClasses, 220, uint64(500+10*i+r)))
			}
		}
		return recs
	}
	lopsided := func(t *testing.T) [][][]byte {
		heavy := testRecording(t, 1, 1200, 83)
		light := testRecording(t, 2, 160, 84)
		recs := [][][]byte{{heavy, heavy}}
		for i := 0; i < 3; i++ {
			recs = append(recs, [][]byte{light, light, light, light})
		}
		return recs
	}
	cases := []struct {
		name string
		o    stream.Options
		recs func(*testing.T) [][][]byte // per session, its recordings in order
	}{
		{"plain", stream.Options{WindowMS: 45, Steps: 4, Batch: 2, ChunkEvents: 64}, uniform},
		{"aqf", stream.Options{WindowMS: 50, Steps: 4, Batch: 3, ChunkEvents: 48, AQF: &aqf}, uniform},
		{"lopsided", stream.Options{WindowMS: 40, Steps: 4, Batch: 4, ChunkEvents: 48}, lopsided},
		// The serve default's reorder window, which holds each uniform
		// recording (250–386 events) whole.
		{"uniform-reorder1024", stream.Options{WindowMS: 45, Steps: 4, Batch: 2, ChunkEvents: 64, ReorderWindow: 1024}, uniform},
		// A small window the buffer slides through many times, reused
		// across each session's 2–4 recordings.
		{"lopsided-reorder32", stream.Options{WindowMS: 40, Steps: 4, Batch: 4, ChunkEvents: 48, ReorderWindow: 32}, lopsided},
	}
	const poolSize = 2
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			master := testNet(4, 61)
			recs := tc.recs(t)
			srv, err := NewServer(master, ServerOptions{Pipeline: tc.o, MaxSessions: len(recs), PoolSize: poolSize})
			if err != nil {
				t.Fatal(err)
			}
			wants := make([][][]stream.Result, len(recs))
			streamed := 0
			for i, rs := range recs {
				for _, data := range rs {
					want := standalone(t, master, data, tc.o)
					wants[i] = append(wants[i], want)
					streamed += len(want)
				}
			}
			var wg sync.WaitGroup
			errs := make(chan error, len(recs))
			for i := range recs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					cl, done := startSession(srv)
					defer cl.Close()
					for r, data := range recs[i] {
						want := wants[i][r]
						var got []stream.Result
						if _, err := cl.Stream(bytes.NewReader(data), func(res stream.Result) error {
							got = append(got, res)
							return nil
						}); err != nil {
							errs <- fmt.Errorf("session %d recording %d: %w", i, r, err)
							return
						}
						if len(got) != len(want) {
							errs <- fmt.Errorf("session %d recording %d: %d results, want %d", i, r, len(got), len(want))
							return
						}
						for k := range want {
							if !sameResult(got[k], want[k]) {
								errs <- fmt.Errorf("session %d recording %d: result %d = %+v, want %+v",
									i, r, k, got[k], want[k])
								return
							}
						}
					}
					cl.Close()
					<-done
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if n := srv.Metrics().WindowsServed.Load(); n != int64(streamed) {
				t.Fatalf("windows_served = %d; the sessions streamed %d", n, streamed)
			}
			if hw := srv.Slots().HighWater(); hw < 1 || hw > poolSize {
				t.Fatalf("slot high water = %d, want 1..%d", hw, poolSize)
			}
		})
	}
}

// TestServeSessionLimit pins the session manager's bound: the
// MaxSessions+1'th connection is refused with ErrAtCapacity, loudly.
func TestServeSessionLimit(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	master := testNet(3, 9)
	o := stream.Options{WindowMS: 50, Steps: 3}
	srv, err := NewServer(master, ServerOptions{Pipeline: o, MaxSessions: 1, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the only slot with a session that holds its recording open.
	cl1, done1 := startSession(srv)
	defer cl1.Close()
	started := make(chan struct{})
	finished := make(chan error, 1)
	go func() {
		data := testRecording(t, 1, 120, 11)
		r, w := net.Pipe() // a recording source we can hold open
		go func() {
			w.Write(data[:len(data)/2])
			<-started
			w.Write(data[len(data)/2:])
			w.Close()
		}()
		_, err := cl1.Stream(readerOf(r), nil)
		finished <- err
	}()

	// Wait until the first session is actually admitted.
	for srv.ActiveSessions() == 0 {
		runtime.Gosched()
	}
	cl2, done2 := startSession(srv)
	defer cl2.Close()
	if _, err := cl2.Stream(bytes.NewReader(testRecording(t, 2, 120, 12)), nil); err == nil ||
		!strings.Contains(err.Error(), "capacity") {
		t.Fatalf("second session error = %v, want capacity refusal", err)
	}
	if err := <-done2; !errors.Is(err, ErrAtCapacity) {
		t.Fatalf("ServeConn returned %v, want ErrAtCapacity", err)
	}

	close(started)
	if err := <-finished; err != nil {
		t.Fatalf("first session failed: %v", err)
	}
	cl1.Close()
	<-done1
}

// readerOf adapts a net.Conn to the io.Reader Stream consumes.
func readerOf(c net.Conn) *connReader { return &connReader{c} }

type connReader struct{ c net.Conn }

func (r *connReader) Read(p []byte) (int, error) { return r.c.Read(p) }

// trainedDisagreeing deep-clones base and trains it on synthetic
// gestures until its windowed predictions on data differ from avoid.
func trainedDisagreeing(t testing.TB, base *snn.Network, data []byte, o stream.Options, avoid []stream.Result) *snn.Network {
	t.Helper()
	cfg := dvs.DefaultGestureConfig()
	cfg.W, cfg.H = 16, 16
	cfg.Duration = 120
	cfg.BlobR = 2
	set := dvs.GenerateGestureSet(8, cfg, 900)
	frames := make([][]*tensor.Tensor, set.Len())
	labels := make([]int, set.Len())
	for i, sm := range set.Samples {
		frames[i] = sm.Stream.Voxelize(base.Cfg.Steps)
		labels[i] = sm.Label
	}
	cand := base.DeepClone()
	for epoch := 0; epoch < 8; epoch++ {
		snn.TrainFrames(cand, frames, labels, snn.TrainOptions{
			Epochs: 1, BatchSize: 4, Optimizer: snn.NewAdam(5e-3), Seed: uint64(1000 + epoch),
		})
		if fmt.Sprint(standalone(t, cand, data, o)) != fmt.Sprint(avoid) {
			return cand
		}
	}
	t.Fatal("could not train a model that disagrees with the base; test would be vacuous")
	return nil
}

// TestServeHotSwapNewWeights pins the visible half of the RCU swap:
// after LoadCheckpoint, sessions classify on the new weights — results
// match the new model's standalone pipeline, not the old one's.
func TestServeHotSwapNewWeights(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	oldNet := testNet(4, 21)
	o := stream.Options{WindowMS: 40, Steps: 4, ChunkEvents: 16}
	data := testRecording(t, 3, 200, 31)
	wantOld := standalone(t, oldNet, data, o)

	// Train a replacement until it visibly disagrees with the old model
	// on this recording, so the swap's effect is observable (untrained
	// random nets often share one constant prediction).
	newNet := trainedDisagreeing(t, oldNet, data, o, wantOld)
	wantNew := standalone(t, newNet, data, o)
	var ckpt bytes.Buffer
	if err := newNet.Save(&ckpt); err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer(oldNet, ServerOptions{Pipeline: o, PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}

	run := func(ctx string, want []stream.Result) {
		cl, done := startSession(srv)
		defer cl.Close()
		var got []stream.Result
		if _, err := cl.Stream(bytes.NewReader(data), func(r stream.Result) error {
			got = append(got, r)
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		assertResults(t, ctx, want, got)
		cl.Close()
		<-done
	}
	run("before swap", wantOld)
	if err := srv.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	if srv.Swaps() != 1 {
		t.Fatalf("Swaps() = %d, want 1", srv.Swaps())
	}
	run("after swap", wantNew)

	// A corrupt checkpoint must not disturb the served model.
	if err := srv.LoadCheckpoint(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
	run("after failed swap", wantNew)
}

// TestServeBadClientFrame: an unknown frame type is answered with a
// frameError, and the server survives to serve the next session.
func TestServeBadClientFrame(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	master := testNet(3, 41)
	o := stream.Options{WindowMS: 50, Steps: 3}
	srv, err := NewServer(master, ServerOptions{Pipeline: o, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	cs, ss := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.ServeConn(ss) }()
	if _, err := cs.Write([]byte{0x7f, 0, 0, 0, 0}); err != nil { // unknown type, empty payload
		t.Fatal(err)
	}
	br := bufio.NewReader(cs)
	typ, n, err := readHeader(br)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		t.Fatal(err)
	}
	if typ != frameError || !strings.Contains(string(payload), "frame type") {
		t.Fatalf("got frame 0x%02x %q, want frameError naming the bad type", typ, payload)
	}
	cs.Close()
	if err := <-done; err == nil {
		t.Fatal("ServeConn reported no error for a bad frame")
	}

	// The server is still healthy.
	cl2, done2 := startSession(srv)
	defer cl2.Close()
	data := testRecording(t, 1, 100, 42)
	if _, err := cl2.Stream(bytes.NewReader(data), nil); err != nil {
		t.Fatalf("server unhealthy after bad frame: %v", err)
	}
	cl2.Close()
	<-done2
}

// TestServeSurvivesMismatchedSensorSession is the panic-containment
// regression test: a session whose recording declares a valid but
// wrong sensor (the pipeline adopts 8×8, the network expects 16×16)
// panics deep in classification. That must fail the SESSION with an
// error frame — never the process — and must not leak the pooled
// clone: with PoolSize 1, a leak would hang every later session.
func TestServeSurvivesMismatchedSensorSession(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	master := testNet(3, 91) // built for 16×16 input
	o := stream.Options{WindowMS: 50, Steps: 3}
	srv, err := NewServer(master, ServerOptions{Pipeline: o, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}

	wrong := &dvs.Stream{W: 8, H: 8, Duration: 100}
	for i := 0; i < 40; i++ {
		wrong.Events = append(wrong.Events, dvs.Event{X: i % 8, Y: (i / 8) % 8, P: 1, T: float64(i)})
	}
	var buf bytes.Buffer
	if err := dvs.WriteAEDAT(&buf, wrong); err != nil {
		t.Fatal(err)
	}

	cl, done := startSession(srv)
	defer cl.Close()
	if _, err := cl.Stream(bytes.NewReader(buf.Bytes()), nil); err == nil ||
		!strings.Contains(err.Error(), "panicked") {
		t.Fatalf("mismatched-sensor session error = %v, want a contained classification panic", err)
	}
	cl.Close()
	if err := <-done; err == nil {
		t.Fatal("ServeConn reported no error")
	}

	// The pool must be whole: the next session classifies normally.
	cl2, done2 := startSession(srv)
	defer cl2.Close()
	data := testRecording(t, 2, 120, 92)
	want := standalone(t, master, data, o)
	var got []stream.Result
	if _, err := cl2.Stream(bytes.NewReader(data), func(r stream.Result) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatalf("server unhealthy after contained panic: %v", err)
	}
	assertResults(t, "post-panic session", want, got)
	cl2.Close()
	<-done2
}

// TestServeTCP exercises the production transport end to end: a real
// listener, a real dial, a session matching the standalone reference.
func TestServeTCP(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	master := testNet(4, 51)
	o := stream.Options{WindowMS: 60, Steps: 4}
	srv, err := NewServer(master, ServerOptions{Pipeline: o, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("tcp listen unavailable: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(conn)
	data := testRecording(t, 5, 240, 52)
	want := standalone(t, master, data, o)
	var got []stream.Result
	if _, err := cl.Stream(bytes.NewReader(data), func(r stream.Result) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	assertResults(t, "tcp session", want, got)
	cl.Close()
	srv.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
}
