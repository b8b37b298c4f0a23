package serve

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/snn"
	"repro/internal/stream"
	"repro/internal/tensor"
)

// BenchmarkServeWindow measures one steady-state served window — pool
// acquire, windowed voxelization, batched arena inference, pool
// release, result framing — the per-window cost that must stay at
// 0 allocs/op (CI's zero-alloc gate covers this benchmark).
func BenchmarkServeWindow(b *testing.B) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	master := testNet(8, 71)
	srv, err := NewServer(master, ServerOptions{
		Pipeline: stream.Options{WindowMS: 50, Steps: 8}, PoolSize: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	body := serveWindowBody(b, srv)
	body(0) // warm the arena, frames and frame buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body(i + 1)
	}
}

// BenchmarkServeCreditWindow measures the credit-flow additions to the
// per-window serving path — ring staging, the credit CAS, counters and
// the latency histogram — and is covered by CI's zero-alloc gate: the
// backpressure machinery must stay free on the hot path.
func BenchmarkServeCreditWindow(b *testing.B) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	master := testNet(8, 71)
	srv, err := NewServer(master, ServerOptions{
		Pipeline: stream.Options{WindowMS: 50, Steps: 8}, PoolSize: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	ss := newTestSession(srv)
	ss.addCredits(1 << 30)
	body := serveCreditWindowBody(b, srv, ss)
	body(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body(i + 1)
	}
}

// BenchmarkServeSlowConsumer measures a 4-session server where one
// consumer sleeps per result while three drain freely — the
// backpressure scenario: the slow session must cost credit stalls, not
// pool units or the fast sessions' throughput. Reports the fast
// sessions' aggregate windows/s and the stall count per iteration.
func BenchmarkServeSlowConsumer(b *testing.B) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(1)
	master := testNet(6, 81)
	o := stream.Options{WindowMS: 60, Steps: 6, Batch: 2, ChunkEvents: 1024}
	srv, err := NewServer(master, ServerOptions{
		Pipeline: o, MaxSessions: 4, PoolSize: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	data := testRecording(b, 3, 360, 91)
	windows := len(standalone(b, master, data, o))
	stall := func(stream.Result) error { time.Sleep(time.Millisecond); return nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for s := 0; s < 4; s++ {
			emit := func(stream.Result) error { return nil }
			copts := ClientOptions{}
			if s == 0 {
				emit = stall
				copts.Config.CreditWindow = 2
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl, done := startSessionOptions(srv, copts)
				defer cl.Close()
				if _, err := cl.Stream(bytes.NewReader(data), emit); err != nil {
					errs <- err
					return
				}
				cl.Close()
				<-done
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*3*windows)/b.Elapsed().Seconds(), "fastwindows/s")
	b.ReportMetric(float64(srv.Metrics().CreditStalls.Load())/float64(b.N), "stalls/op")
}

// benchSessions runs one benchmark iteration shape: `sessions`
// concurrent clients each streaming the same recording once, the
// s'th with client options copts(s) (nil means the defaults). Reports
// aggregate windows/s and ns/window. The full tensor-worker budget is
// in play, as deployed (`axsnn-serve -workers 0`): concurrent sessions
// share it through the server's clone and slot pools.
func benchSessions(b *testing.B, sessions int, copts func(int) ClientOptions) {
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(0)
	master := testNet(6, 81)
	o := stream.Options{WindowMS: 60, Steps: 6, Batch: 2, ChunkEvents: 1024}
	srv, err := NewServer(master, ServerOptions{Pipeline: o, MaxSessions: sessions, PoolSize: 2})
	if err != nil {
		b.Fatal(err)
	}
	data := testRecording(b, 3, 360, 91)
	windows := len(standalone(b, master, data, o))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make(chan error, sessions)
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				var co ClientOptions
				if copts != nil {
					co = copts(s)
				}
				cl, done := startSessionOptions(srv, co)
				defer cl.Close()
				if _, err := cl.Stream(bytes.NewReader(data), nil); err != nil {
					errs <- err
					return
				}
				cl.Close()
				<-done
			}(s)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*sessions*windows)/b.Elapsed().Seconds(), "windows/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sessions*windows), "ns/window")
}

// BenchmarkServeSessions measures end-to-end session throughput — the
// full protocol stack over in-process pipes — at 1 to 64 concurrent
// sessions sharing one bounded clone and slot pool.
func BenchmarkServeSessions(b *testing.B) {
	for _, sessions := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			benchSessions(b, sessions, nil)
		})
	}
}

// BenchmarkServeSessionsTiered measures the mixed-precision serving
// path: half the sessions request the INT8 tier, half stay FP32, all
// drawing clones from the one shared pool (which re-pins each clone's
// tier on acquire). Compare windows/s against BenchmarkServeSessions at
// the same session count for the int8 kernel's share of the work.
func BenchmarkServeSessionsTiered(b *testing.B) {
	for _, sessions := range []int{4, 16} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			benchSessions(b, sessions, func(s int) ClientOptions {
				cfg := SessionConfig{}
				if s%2 == 1 {
					cfg.Tier = snn.TierINT8
				}
				return ClientOptions{Config: cfg}
			})
		})
	}
}

// BenchmarkServeRouted prices the router tier: the same concurrent
// session load over loopback TCP against one replica directly
// (mode=direct) and through one router fronting two replicas
// (mode=routed). Compare windows/s for the relay's throughput cost; the
// routed run also reports the router's per-frame proxy p99 — the
// latency the front tier adds to each result frame.
func BenchmarkServeRouted(b *testing.B) {
	const sessions = 8
	defer tensor.SetWorkers(0)
	tensor.SetWorkers(0)
	master := testNet(6, 81)
	o := stream.Options{WindowMS: 60, Steps: 6, Batch: 2, ChunkEvents: 1024}
	data := testRecording(b, 3, 360, 91)
	windows := len(standalone(b, master, data, o))

	newReplica := func(b *testing.B) string {
		b.Helper()
		// Session teardown over TCP is asynchronous (the server reaps a
		// session after the client's Close lands), so consecutive
		// iterations briefly overlap; 4x headroom keeps admission from
		// becoming the bottleneck being measured.
		srv, err := NewServer(master.DeepClone(), ServerOptions{
			Pipeline: o, MaxSessions: 4 * sessions, PoolSize: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Skipf("tcp listen unavailable: %v", err)
		}
		go func() { _ = srv.Serve(ln) }()
		b.Cleanup(func() { srv.Close() })
		return ln.Addr().String()
	}

	run := func(b *testing.B, addr string) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			errs := make(chan error, sessions)
			for s := 0; s < sessions; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					cl, err := Dial(addr, ClientOptions{})
					if err != nil {
						errs <- err
						return
					}
					defer cl.Close()
					if _, err := cl.Stream(bytes.NewReader(data), nil); err != nil {
						errs <- err
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*sessions*windows)/b.Elapsed().Seconds(), "windows/s")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sessions*windows), "ns/window")
	}

	b.Run("mode=direct", func(b *testing.B) {
		run(b, newReplica(b))
	})
	b.Run("mode=routed", func(b *testing.B) {
		rt, err := NewRouter(RouterOptions{
			Replicas:       []string{newReplica(b), newReplica(b)},
			HealthInterval: 50 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { rt.Close() })
		deadline := time.Now().Add(30 * time.Second)
		for rt.Healthy() < 2 {
			if time.Now().After(deadline) {
				b.Fatal("replicas never came up")
			}
			time.Sleep(5 * time.Millisecond)
		}
		rln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Skipf("tcp listen unavailable: %v", err)
		}
		go func() { _ = rt.Serve(rln) }()
		run(b, rln.Addr().String())
		hist := rt.metrics.ProxyLatency.Snapshot()
		b.ReportMetric(float64(hist.Quantile(0.99))/float64(time.Millisecond), "proxyp99ms")
	})
}
