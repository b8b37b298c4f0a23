package serve

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dvs"
	"repro/internal/stream"
	"repro/internal/tensor"
)

// TestServeSoakHotSwapUnderLoad is the concurrency soak: many live
// sessions, each streaming several recordings over net.Pipe, while a
// swapper goroutine hot-swaps checkpoints into the server the whole
// time. The checkpoints carry the master's own weights, so every
// prediction is invariant under swap timing — which is exactly what
// lets the test assert bit-identical results per session while the
// race detector watches the RCU exchange, the pool refresh and the
// session fan-out collide. (go test -race runs this in CI's race job.)
func TestServeSoakHotSwapUnderLoad(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(2)
	master := testNet(4, 61)
	var ckpt bytes.Buffer
	if err := master.Save(&ckpt); err != nil {
		t.Fatal(err)
	}

	o := stream.Options{WindowMS: 45, Steps: 4, Batch: 2, ChunkEvents: 48}
	srv, err := NewServer(master, ServerOptions{Pipeline: o, MaxSessions: 12, PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}

	const (
		sessions   = 5
		recordings = 3
	)
	// Precompute recordings and references serially (deterministic
	// regardless of worker count — pinned by the stream equivalence
	// suite).
	type job struct {
		data []byte
		want []stream.Result
	}
	jobs := make([][]job, sessions)
	for i := range jobs {
		jobs[i] = make([]job, recordings)
		for r := range jobs[i] {
			data := testRecording(t, (i+r)%dvs.GestureClasses, 200, uint64(300+10*i+r))
			jobs[i][r] = job{data: data, want: standalone(t, master, data, o)}
		}
	}

	var stop atomic.Bool
	var swapWG sync.WaitGroup
	swapWG.Add(1)
	go func() {
		defer swapWG.Done()
		for !stop.Load() {
			if err := srv.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
				t.Errorf("hot swap failed: %v", err)
				return
			}
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, done := startSession(srv)
			defer cl.Close()
			for r, j := range jobs[i] {
				var got []stream.Result
				if _, err := cl.Stream(bytes.NewReader(j.data), func(res stream.Result) error {
					got = append(got, res)
					return nil
				}); err != nil {
					errs <- fmt.Errorf("session %d recording %d: %w", i, r, err)
					return
				}
				if len(got) != len(j.want) {
					errs <- fmt.Errorf("session %d recording %d: %d results, want %d", i, r, len(got), len(j.want))
					return
				}
				for k := range j.want {
					if !sameResult(got[k], j.want[k]) {
						errs <- fmt.Errorf("session %d recording %d: result %d = %+v, want %+v",
							i, r, k, got[k], j.want[k])
						return
					}
				}
			}
			cl.Close()
			<-done
		}(i)
	}
	wg.Wait()
	stop.Store(true)
	swapWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if srv.Swaps() == 0 {
		t.Fatal("soak ran without a single hot swap; the test did not exercise the exchange")
	}
	if n := srv.ActiveSessions(); n != 0 {
		t.Fatalf("%d sessions still active after drain", n)
	}
}

// TestServeSlowConsumerSoak is the backpressure soak: one session
// consuming a result every 10ms on a 1-credit window shares a
// 4-session server with three full-speed sessions. The slow consumer
// must cost credit stalls — never pooled memory (slot high water stays
// within PoolSize) or the fast sessions' latency (the concurrent p99
// classification latency stays within 2× the solo baseline, with a
// floor absorbing scheduler noise on tiny absolute latencies). Every
// session still gets bit-identical results, and nothing stays buffered
// once the sessions drain. (go test -race runs this in CI's race job.)
func TestServeSlowConsumerSoak(t *testing.T) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(2)
	master := testNet(4, 61)
	o := stream.Options{WindowMS: 45, Steps: 4, Batch: 2, ChunkEvents: 48}
	const poolSize = 2
	srv, err := NewServer(master, ServerOptions{Pipeline: o, MaxSessions: 4, PoolSize: poolSize})
	if err != nil {
		t.Fatal(err)
	}
	data := testRecording(t, 1, 400, 23)
	want := standalone(t, master, data, o)

	// run streams the recording `repeats` times on one session and
	// checks each pass against the serial reference. Errors return (not
	// Fatal) — phase 2 calls it from worker goroutines.
	run := func(copts ClientOptions, repeats int, emit func(stream.Result) error) error {
		cl, done := startSessionOptions(srv, copts)
		defer cl.Close()
		for rec := 0; rec < repeats; rec++ {
			var got []stream.Result
			if _, err := cl.Stream(bytes.NewReader(data), func(r stream.Result) error {
				if emit != nil {
					if err := emit(r); err != nil {
						return err
					}
				}
				got = append(got, r)
				return nil
			}); err != nil {
				return fmt.Errorf("recording %d: %w", rec, err)
			}
			if len(got) != len(want) {
				return fmt.Errorf("recording %d: %d results, want %d", rec, len(got), len(want))
			}
			for k := range want {
				if !sameResult(got[k], want[k]) {
					return fmt.Errorf("recording %d: result %d = %+v, want %+v", rec, k, got[k], want[k])
				}
			}
		}
		cl.Close()
		<-done
		return nil
	}

	// phase runs 4 concurrent sessions — session 0 configured by the
	// caller, the rest full speed — and returns the phase's latency
	// histogram delta.
	phase := func(slowOpts ClientOptions, slowRepeats int, slowEmit func(stream.Result) error) HistSnapshot {
		mark := srv.Metrics().Latency.Snapshot()
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for s := 0; s < 4; s++ {
			copts, repeats, emit := ClientOptions{}, 3, (func(stream.Result) error)(nil)
			if s == 0 {
				copts, repeats, emit = slowOpts, slowRepeats, slowEmit
			}
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				if err := run(copts, repeats, emit); err != nil {
					errs <- fmt.Errorf("session %d: %w", s, err)
				}
			}(s)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		return srv.Metrics().Latency.Snapshot().Sub(mark)
	}

	// Phase 1 — baseline: the same 4-session load shape, every consumer
	// full speed, so the baseline carries the pool and worker contention
	// that 4 concurrent pipelines cost by themselves.
	base := phase(ClientOptions{}, 3, nil)
	p99base := base.Quantile(0.99)
	if base.Count() == 0 || p99base == 0 {
		t.Fatalf("baseline phase recorded no latency samples (count=%d p99=%v)", base.Count(), p99base)
	}

	// Phase 2 — identical load, except session 0 consumes one result
	// per 10ms on a 1-credit window.
	slow := func(stream.Result) error { time.Sleep(10 * time.Millisecond); return nil }
	conc := phase(ClientOptions{Config: SessionConfig{CreditWindow: 1}}, 1, slow)

	m := srv.Metrics()
	if m.CreditStalls.Load() == 0 {
		t.Error("a 10ms-per-result consumer on a 1-credit window produced no credit stalls")
	}
	if hw := srv.Slots().HighWater(); hw < 1 || hw > poolSize {
		t.Errorf("slot high water = %d, want within [1, %d]: the slow session must not pin pooled frame memory", hw, poolSize)
	}
	if b := m.ResultsBuffered.Load(); b != 0 {
		t.Errorf("%d results still buffered after every session drained", b)
	}
	if n := srv.ActiveSessions(); n != 0 {
		t.Fatalf("%d sessions still active after drain", n)
	}

	// Serving latency must not degrade past 2× the all-fast baseline
	// because one consumer went slow: stalls park that session's
	// writer, not the shared pools. ObserveRound measures pool wait +
	// classification and excludes result delivery, so the slow
	// session's own rounds don't smear the histogram. The additive
	// slack absorbs scheduler jitter on small absolute baselines —
	// wider under the race detector, whose instrumentation both
	// inflates and destabilizes latencies. A pre-hardening server,
	// where a slow consumer pinned pool slots for its full consumption
	// time, blows through the bound by an order of magnitude.
	p99conc := conc.Quantile(0.99)
	slack := 10 * time.Millisecond
	if raceEnabled {
		slack = 60 * time.Millisecond
	}
	limit := 2*p99base + slack
	if p99conc > limit {
		t.Errorf("slow-consumer phase p99 = %v exceeds %v (2× baseline p99 %v + %v slack)", p99conc, limit, p99base, slack)
	}
}
