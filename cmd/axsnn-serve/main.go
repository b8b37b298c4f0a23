// Command axsnn-serve is the multi-session event-stream server: it
// serves windowed SNN classifications over the serve framing protocol,
// one session per TCP connection, drawing evaluation clones from a
// bounded shared pool and hot-swapping checkpoints without dropping
// traffic (SIGHUP reloads -checkpoint atomically; in-flight window
// batches finish on the weights they hold).
//
// Server mode:
//
//	axsnn-serve [-addr :7360] [-sessions 16] [-workers 0] [-pool 0]
//	            [-checkpoint model.gob] [-window 600] [-steps 8]
//	            [-batch 4] [-chunk 4096] [-reorder 1024] [-qt -1]
//	            [-perwindow] [-train 33] [-epochs 4] [-seed N]
//	            [-metrics :7361] [-idle-timeout 2m] [-write-timeout 30s]
//	            [-queue-timeout 0] [-result-window 256] [-admin-swap]
//
// Without -checkpoint a small gesture classifier is trained on
// synthetic 32×32 DVS streams at startup (the same quick model
// axsnn-stream builds); with -checkpoint the weights are loaded into
// that architecture instead, and SIGHUP re-reads the file for a live
// hot-swap. -qt >= 0 enables AQF denoising — cross-window incremental
// by default, the lossy per-window form with -perwindow.
//
// -metrics starts an HTTP observability listener serving the counter
// registry on /metrics — JSON by default, Prometheus text exposition
// with ?format=prometheus or a text/plain Accept header — and the
// process-global expvar namespace on /debug/vars. The hardening knobs
// map straight onto serve.ServerOptions: -idle-timeout and
// -write-timeout bound per-frame I/O, -queue-timeout opts connections
// at a full server into bounded admission queueing, and -result-window
// caps buffered undelivered results per session. -admin-swap enables
// the frameSwap checkpoint RPC on client connections (required on
// replicas fronted by a router; leave it off on servers exposed to
// untrusted clients).
//
// Router mode:
//
//	axsnn-serve -route 127.0.0.1:7401,127.0.0.1:7402[,...]
//	            [-addr :7360] [-spawn] [-health-interval 2s]
//	            [-checkpoint model.gob] [-metrics :7361]
//	            [-idle-timeout 2m] [-write-timeout 30s] [-dial-timeout 10s]
//
// The horizontal scale-out front tier: client connections are accepted
// on -addr and each session is placed onto one of the -route replicas
// by rendezvous hash, the framing relayed verbatim both ways (hello
// handshakes and credit grants included). Replicas are health-checked
// every -health-interval; a dying replica turns its in-flight sessions
// into clean frameErrors and new sessions re-place onto survivors, and
// a recovered replica is resynced to the last fanned-out checkpoint
// before rejoining. SIGHUP fans -checkpoint out to every replica as an
// all-or-nothing prepare/commit swap (rolled back everywhere if any
// replica fails to stage it). -spawn additionally starts one supervised
// replica subprocess per -route address — the same binary in server
// mode with -admin-swap, restarted with backoff if it exits — turning
// one command line into a small local fleet. -metrics serves the
// router's snapshot (sessions per replica, up/down, re-placements,
// proxy p50/p99) with the same JSON/Prometheus negotiation.
//
// Every session classifies its windows -batch at a time on its own
// pipeline, each batch on a clone and a frame slot borrowed from the
// server's -pool-sized pools, so sessions share the compute budget
// without sharing batches.
//
// Load-generator mode:
//
//	axsnn-serve -load [-addr host:7360] [-sessions 8] [-recordings 4]
//	            [-segments 6] [-window 600] [-seed N] [-credit-window 64]
//	            [-dial-timeout 10s] [-int8] [-metrics host:7361]
//
// Opens -sessions concurrent sessions, streams -recordings synthetic
// multi-gesture flows on each, checks the protocol invariants (window
// order, declared counts) and reports aggregate windows/s. Sessions
// negotiate their config via the hello handshake: -credit-window sets
// the result window (a negative window is rejected) and -int8 requests
// the quantized INT8 precision tier (the server refuses the hello if
// the served model carries no int8 panels). The generator points at a
// server or a router unchanged; with -metrics the metrics endpoint is
// fetched and printed after the run.
package main

import (
	"bytes"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/defense"
	"repro/internal/dvs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/snn"
	"repro/internal/stream"
	"repro/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("axsnn-serve: ")

	addr := flag.String("addr", ":7360", "listen address (server) / server address (-load)")
	sessions := flag.Int("sessions", 16, "max concurrent sessions (server) / concurrent sessions to open (-load)")
	workers := flag.Int("workers", 0, "tensor worker budget (0 = all cores)")
	pool := flag.Int("pool", 0, "shared clone pool size (0 = worker budget)")
	checkpoint := flag.String("checkpoint", "", "checkpoint to serve; SIGHUP reloads it as a hot swap")
	window := flag.Float64("window", 600, "prediction window (ms)")
	steps := flag.Int("steps", 8, "voxel time bins per window")
	batch := flag.Int("batch", 4, "windows per batched inference call")
	chunk := flag.Int("chunk", 4096, "reader chunk size (events)")
	reorder := flag.Int("reorder", 1024, "reorder-buffer capacity (0 = require sorted)")
	qt := flag.Float64("qt", -1, "AQF quantization step in seconds; < 0 disables filtering")
	perWindow := flag.Bool("perwindow", false, "use the lossy per-window AQF instead of the cross-window incremental form")
	trainN := flag.Int("train", 33, "synthetic training streams when no -checkpoint is given")
	epochs := flag.Int("epochs", 4, "training epochs for the synthetic model")
	loadMode := flag.Bool("load", false, "run as load generator against -addr")
	recordings := flag.Int("recordings", 4, "recordings per session (-load)")
	segments := flag.Int("segments", 6, "gesture segments per recording (-load)")
	seed := flag.Uint64("seed", 4, "seed")
	metricsAddr := flag.String("metrics", "", "metrics HTTP listen address (server) / metrics endpoint to fetch after the run (-load)")
	idleTimeout := flag.Duration("idle-timeout", 0, "per-frame read deadline; 0 = 2m default, negative disables")
	writeTimeout := flag.Duration("write-timeout", 0, "per-frame write deadline; 0 = 30s default, negative disables")
	queueTimeout := flag.Duration("queue-timeout", 0, "how long a connection may queue at a full server; 0 = refuse immediately")
	resultWindow := flag.Int("result-window", 0, "undelivered results buffered per session under credit flow (0 = 256)")
	creditWindow := flag.Int("credit-window", 0, "result credits a -load session keeps granted (0 = 64 default)")
	dialTimeout := flag.Duration("dial-timeout", 0, "-load connection timeout (0 = 10s default)")
	int8Tier := flag.Bool("int8", false, "-load sessions request the quantized INT8 precision tier")
	adminSwap := flag.Bool("admin-swap", false, "allow the frameSwap checkpoint RPC on client connections (required on routed replicas)")
	route := flag.String("route", "", "comma-separated replica addresses; run as router front tier instead of server")
	spawn := flag.Bool("spawn", false, "router spawns and supervises one replica subprocess per -route address")
	healthInterval := flag.Duration("health-interval", 0, "router replica health-check interval (0 = 2s default)")
	flag.Parse()
	tensor.SetWorkers(*workers)

	gcfg := dvs.DefaultGestureConfig()
	gcfg.Duration = *window

	if *loadMode {
		cfg := serve.SessionConfig{CreditWindow: *creditWindow}
		if *int8Tier {
			cfg.Tier = snn.TierINT8
		}
		copts := serve.ClientOptions{
			Config:       cfg,
			DialTimeout:  *dialTimeout,
			IdleTimeout:  *idleTimeout,
			WriteTimeout: *writeTimeout,
		}
		if err := copts.Validate(); err != nil {
			log.Fatal(err)
		}
		runLoad(*addr, *sessions, *recordings, *segments, gcfg, *seed, copts)
		if *metricsAddr != "" {
			fetchMetrics(*metricsAddr)
		}
		return
	}

	if *route != "" {
		runRouter(*route, *addr, *spawn, *healthInterval, *checkpoint, *metricsAddr,
			*idleTimeout, *writeTimeout, *dialTimeout)
		return
	}

	net_ := snn.DVSNet(snn.DefaultConfig(1.0, *steps), gcfg.H, gcfg.W, dvs.GestureClasses, true,
		rng.New(*seed+1), rng.New(*seed+2))
	if *checkpoint != "" {
		if err := net_.LoadFile(*checkpoint); err != nil {
			log.Fatalf("loading %s: %v", *checkpoint, err)
		}
		fmt.Printf("serving checkpoint %s\n", *checkpoint)
	} else {
		trainSynthetic(net_, *trainN, *epochs, *steps, gcfg, *seed)
	}

	opts := stream.Options{
		WindowMS: *window, Steps: *steps, Batch: *batch,
		ChunkEvents: *chunk, ReorderWindow: *reorder,
		SensorW: gcfg.W, SensorH: gcfg.H,
	}
	if *qt >= 0 {
		p := defense.DefaultAQFParams(*qt)
		if *perWindow {
			opts.Filter = defense.AQFFilter{Params: p}
		} else {
			opts.AQF = &p
		}
	}
	srv, err := serve.NewServer(net_, serve.ServerOptions{
		Pipeline: opts, MaxSessions: *sessions, PoolSize: *pool,
		IdleTimeout: *idleTimeout, WriteTimeout: *writeTimeout,
		QueueTimeout: *queueTimeout, ResultWindow: *resultWindow,
		AdminSwap: *adminSwap,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *metricsAddr != "" {
		srv.PublishExpvar("axsnn_serve")
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.MetricsHandler())
		mux.Handle("/debug/vars", expvar.Handler())
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("metrics listener: %v", err)
		}
		fmt.Printf("metrics on http://%s/metrics\n", mln.Addr())
		go func() {
			if err := http.Serve(mln, mux); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}

	if *checkpoint != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				if err := srv.LoadCheckpointFile(*checkpoint); err != nil {
					log.Printf("hot swap failed (still serving previous weights): %v", err)
					continue
				}
				log.Printf("hot-swapped %s (swap #%d)", *checkpoint, srv.Swaps())
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("listening on %s (max %d sessions, pool %d clones, %gms windows)\n",
		ln.Addr(), *sessions, effectivePool(*pool), *window)
	if err := srv.Serve(ln); err != nil {
		log.Fatal(err)
	}
}

// runRouter is router mode: the horizontal scale-out front tier placing
// sessions across the -route replica set.
func runRouter(route, addr string, spawn bool, healthInterval time.Duration,
	checkpoint, metricsAddr string, idleTimeout, writeTimeout, dialTimeout time.Duration) {
	replicas := strings.Split(route, ",")
	for i := range replicas {
		replicas[i] = strings.TrimSpace(replicas[i])
	}
	if spawn {
		for _, raddr := range replicas {
			go superviseReplica(raddr)
		}
	}
	rt, err := serve.NewRouter(serve.RouterOptions{
		Replicas:       replicas,
		HealthInterval: healthInterval,
		DialTimeout:    dialTimeout,
		IdleTimeout:    idleTimeout,
		WriteTimeout:   writeTimeout,
	})
	if err != nil {
		log.Fatal(err)
	}

	if metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", rt.MetricsHandler())
		mux.Handle("/debug/vars", expvar.Handler())
		mln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			log.Fatalf("metrics listener: %v", err)
		}
		fmt.Printf("router metrics on http://%s/metrics\n", mln.Addr())
		go func() {
			if err := http.Serve(mln, mux); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}

	if checkpoint != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				statuses, err := rt.SwapAll(checkpoint)
				for _, st := range statuses {
					switch {
					case st.OK:
						log.Printf("swap %s: ok (generation %d, fingerprint %016x)", st.Addr, st.Generation, st.Fingerprint)
					case st.RolledBack:
						log.Printf("swap %s: staged, rolled back", st.Addr)
					default:
						log.Printf("swap %s: %s", st.Addr, st.Err)
					}
				}
				if err != nil {
					log.Printf("fleet swap failed (replicas keep previous weights): %v", err)
					continue
				}
				log.Printf("fleet hot-swapped %s across %d replicas", checkpoint, len(statuses))
			}
		}()
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("routing %s across %d replicas: %s\n", ln.Addr(), len(replicas), strings.Join(replicas, ", "))
	if err := rt.Serve(ln); err != nil {
		log.Fatal(err)
	}
}

// superviseReplica keeps one replica subprocess alive: the same binary
// in server mode listening on raddr with the swap RPC enabled,
// inheriting every explicitly-set serving flag from the router's command
// line, restarted with backoff when it exits.
func superviseReplica(raddr string) {
	args := []string{"-addr", raddr, "-admin-swap"}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "addr", "admin-swap", "route", "spawn", "metrics", "load":
			return
		}
		args = append(args, "-"+f.Name+"="+f.Value.String())
	})
	backoff := time.Second
	for {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		start := time.Now()
		err := cmd.Run()
		log.Printf("replica %s exited after %v: %v", raddr, time.Since(start).Round(time.Millisecond), err)
		if time.Since(start) > 30*time.Second {
			backoff = time.Second
		} else if backoff *= 2; backoff > 30*time.Second {
			backoff = 30 * time.Second
		}
		time.Sleep(backoff)
	}
}

// effectivePool mirrors the server's default so the banner is accurate.
func effectivePool(n int) int {
	if n <= 0 {
		return tensor.Workers()
	}
	return n
}

// trainSynthetic fits the quick demo classifier axsnn-stream also uses.
func trainSynthetic(net_ *snn.Network, trainN, epochs, steps int, gcfg dvs.GestureConfig, seed uint64) {
	train := dvs.GenerateGestureSet(trainN, gcfg, seed)
	frames := make([][]*tensor.Tensor, train.Len())
	labels := make([]int, train.Len())
	for i, sm := range train.Samples {
		frames[i] = sm.Stream.Voxelize(steps)
		labels[i] = sm.Label
	}
	fmt.Printf("training %d-stream gesture classifier (%d epochs, %d steps)...\n", trainN, epochs, steps)
	snn.TrainFrames(net_, frames, labels, snn.TrainOptions{
		Epochs: epochs, BatchSize: 8, Optimizer: snn.NewAdam(3e-3), Seed: seed + 3,
	})
}

// recordingBytes builds one synthetic multi-gesture flow as AEDAT.
func recordingBytes(segments int, gcfg dvs.GestureConfig, seed uint64) []byte {
	segs := make([]*dvs.Stream, segments)
	for k := range segs {
		class := int(rng.New(seed + uint64(k)).Intn(dvs.GestureClasses))
		segs[k] = dvs.GenerateGesture(class, gcfg, rng.New(seed+100+uint64(k)))
	}
	flow, err := dvs.ConcatStreams(segs...)
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dvs.WriteAEDAT(&buf, flow); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes()
}

// runLoad is the load-generator client: concurrent sessions, each
// streaming several recordings, verifying protocol invariants and
// reporting aggregate throughput.
func runLoad(addr string, sessions, recordings, segments int, gcfg dvs.GestureConfig, seed uint64, copts serve.ClientOptions) {
	var totalWindows, totalEvents atomic.Int64
	var failures atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			cl, err := serve.Dial(addr, copts)
			if err != nil {
				log.Printf("session %d: dial: %v", s, err)
				failures.Add(1)
				return
			}
			defer cl.Close()
			for r := 0; r < recordings; r++ {
				data := recordingBytes(segments, gcfg, seed+uint64(1000*s+r))
				last := -1
				got := 0
				n, err := cl.Stream(bytes.NewReader(data), func(res stream.Result) error {
					if res.Window != last+1 {
						return fmt.Errorf("window %d after %d: out of order", res.Window, last)
					}
					last = res.Window
					got++
					totalEvents.Add(int64(res.Events))
					return nil
				})
				if err != nil {
					log.Printf("session %d recording %d: %v", s, r, err)
					failures.Add(1)
					return
				}
				if n != got {
					log.Printf("session %d recording %d: server declared %d windows, streamed %d", s, r, n, got)
					failures.Add(1)
					return
				}
				totalWindows.Add(int64(n))
			}
		}(s)
	}
	wg.Wait()
	elapsed := time.Since(start)
	fmt.Printf("%d sessions × %d recordings: %d windows, %d events in %v (%.0f windows/s)\n",
		sessions, recordings, totalWindows.Load(), totalEvents.Load(), elapsed.Round(time.Millisecond),
		float64(totalWindows.Load())/elapsed.Seconds())
	if failures.Load() > 0 {
		log.Fatalf("%d session failures", failures.Load())
	}
}

// fetchMetrics dumps the server's metrics endpoint after a load run.
func fetchMetrics(addr string) {
	url := "http://" + addr + "/metrics"
	resp, err := http.Get(url)
	if err != nil {
		log.Printf("fetching %s: %v", url, err)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Printf("reading %s: %v", url, err)
		return
	}
	fmt.Printf("server metrics (%s):\n%s\n", url, bytes.TrimSpace(body))
}
