package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/defense"
	"repro/internal/dvs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/snn"
	"repro/internal/stream"
	"repro/internal/tensor"
)

// The served model and server options are axsnn-serve's defaults: a
// DVSNet lite on a 32×32 sensor at T = 8, trained on 33 synthetic
// streams for 4 epochs, classifying 600 ms windows in batches of 4.
const (
	windowMS  = 600.0
	steps     = 8
	batch     = 4
	maxBatch  = 16 // stream.DefaultMaxBatch, the scheduler's widest tick
	modelSeed = 4  // axsnn-serve's default -seed; inputs never depend on it
	// sessions is the generator's connection count: no more than the
	// two CPUs the benchmark was sized on.
	sessions = 2
	// setupRuns is how many times a run builds its system; setup_s is
	// the median.
	setupRuns = 3
	// sloMS is the paced latency limit, about twice the p99 measured
	// when the benchmark was defined.
	sloMS = 100.0
	// pacedSpeed replays recordings this many times faster than real
	// time: 2 sessions × 24 windows per 14.4 s / 150 ≈ 500 windows/s,
	// about a third of the server's capacity on this input.
	pacedSpeed = 150.0
	// serveBlock is the windows per timing block: a fifth of a second of
	// paced load, a fifteenth of one closed.
	serveBlock = 100
)

// serveSpec is what distinguishes the serve workloads.
type serveSpec struct {
	tier     snn.PrecisionTier
	aqf      bool // server filters with incremental AQF; odd recordings carry Frame-attack events
	paced    bool // open loop on a schedule instead of back to back
	pool     int  // recordings in the seeded pool
	segments int  // gestures (= windows) per recording
}

func specFor(workload string) serveSpec {
	switch workload {
	case "closed-int8":
		return serveSpec{tier: snn.TierINT8, pool: 16, segments: 6}
	case "paced-aqf":
		return serveSpec{aqf: true, paced: true, pool: 8, segments: 24}
	default:
		return serveSpec{pool: 16, segments: 6}
	}
}

func gestureConfig() dvs.GestureConfig {
	g := dvs.DefaultGestureConfig()
	g.Duration = windowMS
	return g
}

func pipelineOptions(spec serveSpec) stream.Options {
	g := gestureConfig()
	o := stream.Options{
		WindowMS: windowMS, Steps: steps, Batch: batch,
		ChunkEvents: 4096, ReorderWindow: 1024,
		SensorW: g.W, SensorH: g.H,
	}
	if spec.aqf {
		p := defense.DefaultAQFParams(0.015)
		o.AQF = &p
	}
	return o
}

// server is one set-up of a serve workload: the trained model served on
// a loopback listener.
type server struct {
	net  *snn.Network
	srv  *serve.Server
	addr string
	done chan error
}

// startServer is the set-up a user of axsnn-serve pays before the first
// request: build and train the model, build the server, listen.
func startServer(spec serveSpec) (*server, error) {
	g := gestureConfig()
	model := snn.DVSNet(snn.DefaultConfig(1.0, steps), g.H, g.W, dvs.GestureClasses, true,
		rng.New(modelSeed+1), rng.New(modelSeed+2))
	train := dvs.GenerateGestureSet(33, g, modelSeed)
	frames := make([][]*tensor.Tensor, train.Len())
	labels := make([]int, train.Len())
	for i, sm := range train.Samples {
		frames[i] = sm.Stream.Voxelize(steps)
		labels[i] = sm.Label
	}
	snn.TrainFrames(model, frames, labels, snn.TrainOptions{
		Epochs: 4, BatchSize: 8, Optimizer: snn.NewAdam(3e-3), Seed: modelSeed + 3,
	})
	srv, err := serve.NewServer(model, serve.ServerOptions{Pipeline: pipelineOptions(spec)})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{net: model, srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	return s, nil
}

// close stops the server and waits for its accept loop to end. Once
// Close has run, Serve's result only says the server was closed.
func (s *server) close() error {
	err := s.srv.Close()
	<-s.done
	return err
}

// recording is one generated input with its oracle.
type recording struct {
	data       []byte
	durationMS float64
	// closes[w] is the offset of the byte that closes window w: the
	// first byte of the first event at or after the window's end, or the
	// recording's last byte.
	closes []int
	// classes[w] is window w's reference class from a standalone
	// stream.Predict with the server's options.
	classes []int
}

// makeRecordings generates the workload's pool from the input seed.
// Frame-attacked recordings are attacked per gesture, so the injected
// events keep the attack's density at every point of the flow.
func makeRecordings(spec serveSpec, seed uint64, model *snn.Network) ([]recording, error) {
	g := gestureConfig()
	r := rng.New(seed)
	frame := attack.NewFrame()
	recs := make([]recording, spec.pool)
	for i := range recs {
		segs := make([]*dvs.Stream, spec.segments)
		for k := range segs {
			class := r.Intn(dvs.GestureClasses)
			segs[k] = dvs.GenerateGesture(class, g, r)
			if spec.aqf && i%2 == 1 {
				segs[k] = frame.Perturb(model, segs[k], class)
			}
		}
		flow, err := dvs.ConcatStreams(segs...)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := dvs.WriteAEDAT(&buf, flow); err != nil {
			return nil, err
		}
		recs[i] = recording{data: buf.Bytes(), durationMS: flow.Duration, closes: closingOffsets(flow, windowMS)}
	}
	return recs, nil
}

// AEDAT layout: a 32-byte header, then one 16-byte record per event.
const (
	aedatHeader = 32
	aedatEvent  = 16
)

// closingOffsets finds, for every window of a time-sorted stream, the
// offset of the byte that closes it in the stream's AEDAT encoding.
func closingOffsets(s *dvs.Stream, windowMS float64) []int {
	last := aedatHeader + aedatEvent*len(s.Events) - 1
	out := make([]int, dvs.NumWindows(s.Duration, windowMS))
	i := 0
	for w := range out {
		out[w] = last
		if w == len(out)-1 {
			break // the last window also holds events at or past its end
		}
		end := float64(w+1) * windowMS
		for i < len(s.Events) && s.Events[i].T < end {
			i++
		}
		if i < len(s.Events) {
			out[w] = aedatHeader + aedatEvent*i
		}
	}
	return out
}

// computeOracle classifies every recording with a standalone pipeline
// configured like the server's sessions.
func computeOracle(recs []recording, model *snn.Network, spec serveSpec) error {
	o := pipelineOptions(spec)
	o.Tier = spec.tier
	for i := range recs {
		res, err := stream.Predict(bytes.NewReader(recs[i].data), model, o)
		if err != nil {
			return fmt.Errorf("oracle for recording %d: %w", i, err)
		}
		if len(res) != len(recs[i].closes) {
			return fmt.Errorf("oracle for recording %d: %d windows, want %d", i, len(res), len(recs[i].closes))
		}
		recs[i].classes = make([]int, len(res))
		for w, r := range res {
			recs[i].classes[w] = r.Class
		}
	}
	return nil
}

// dueReader hands a recording to Client.Stream and stamps when each
// window becomes due: when the byte that closes it is handed out. With a
// schedule it holds that byte back until the window's scheduled time,
// and the window is due at that time, so a late generator counts against
// latency; lag records how late each release actually was.
type dueReader struct {
	data   []byte
	closes []int
	sched  []time.Time // nil in a closed loop
	now    func() time.Time
	sleep  func(time.Duration)

	off, next int // next is the first window not yet due

	// Client.Stream reads on its upload goroutine and delivers results
	// on another; the stamps cross between them.
	mu  sync.Mutex
	due []time.Time
	lag []time.Duration
}

func newDueReader(rec *recording, sched []time.Time) *dueReader {
	return &dueReader{
		data: rec.data, closes: rec.closes, sched: sched,
		now: time.Now, sleep: time.Sleep,
		due: make([]time.Time, len(rec.closes)), lag: make([]time.Duration, len(rec.closes)),
	}
}

func (r *dueReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	if r.next < len(r.closes) && r.closes[r.next] == r.off {
		r.release()
	}
	end := len(r.data)
	if r.next < len(r.closes) {
		end = r.closes[r.next]
	}
	n := copy(p, r.data[r.off:end])
	r.off += n
	return n, nil
}

// release makes every window closed by the byte at r.off due.
func (r *dueReader) release() {
	last := r.next
	for last < len(r.closes) && r.closes[last] == r.off {
		last++
	}
	due := r.now()
	var lag time.Duration
	if r.sched != nil {
		due = r.sched[last-1] // the latest of the windows this byte closes
		if d := due.Sub(r.now()); d > 0 {
			r.sleep(d)
		}
		lag = r.now().Sub(due)
	}
	r.mu.Lock()
	for w := r.next; w < last; w++ {
		r.due[w], r.lag[w] = due, lag
	}
	r.mu.Unlock()
	r.next = last
}

// dueAt reports when window w became due, and false if it is not due yet.
func (r *dueReader) dueAt(w int) (time.Time, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w < 0 || w >= len(r.due) || r.due[w].IsZero() {
		return time.Time{}, false
	}
	return r.due[w], true
}

// schedule is a paced recording's release time per window.
func schedule(start time.Time, windows int) []time.Time {
	out := make([]time.Time, windows)
	for w := range out {
		out[w] = start.Add(time.Duration(float64(w+1) * windowMS / pacedSpeed * float64(time.Millisecond)))
	}
	return out
}

// generator drives the sessions. Recordings that start before measure
// are warm-up; no recording starts at or after end.
type generator struct {
	spec                serveSpec
	addr                string
	recs                []recording
	start, measure, end time.Time
}

// sessionStats accumulates one session's measured recordings.
type sessionStats struct {
	attempted, failed, within int64
	done                      []sample
	lag                       []float64 // ms
	first                     time.Time // when the first measured recording started
}

// session streams recordings on one connection until the run ends,
// redialing after a failed recording. Each window counts once: verified
// when its result arrives in order with the oracle's class, failed
// otherwise.
func (g *generator) session(id int, st *sessionStats) {
	var cl *serve.Client
	defer func() {
		if cl != nil {
			cl.Close()
		}
	}()
	cursor := id * len(g.recs) / sessions
	period := time.Duration(g.recs[0].durationMS / pacedSpeed * float64(time.Millisecond))
	next := g.start.Add(time.Duration(id) * period / sessions)
	for {
		rec := &g.recs[cursor%len(g.recs)]
		cursor++
		recStart := time.Now()
		var sched []time.Time
		if g.spec.paced {
			recStart, sched = next, schedule(next, len(rec.closes))
			next = next.Add(period)
		}
		if !recStart.Before(g.end) && st.attempted > 0 {
			return
		}
		measured := !recStart.Before(g.measure)
		if cl == nil {
			var err error
			cl, err = serve.Dial(g.addr, serve.ClientOptions{Config: serve.SessionConfig{Tier: g.spec.tier}})
			if err != nil {
				cl = nil
				if measured {
					st.attempted += int64(len(rec.classes))
					st.failed += int64(len(rec.classes))
				}
				time.Sleep(10 * time.Millisecond)
				continue
			}
		}
		r := newDueReader(rec, sched)
		var done []sample
		got := 0
		n, err := cl.Stream(r, func(res stream.Result) error {
			at := time.Now()
			due, ok := r.dueAt(res.Window)
			if ok && res.Window == got && got < len(rec.classes) && res.Class == rec.classes[got] {
				done = append(done, sample{at: at, lat: ms(at.Sub(due))})
			}
			got++
			return nil
		})
		if err != nil {
			cl.Close()
			cl = nil
		} else if n != len(rec.classes) || got != n {
			done = nil
		}
		if !measured {
			continue
		}
		if st.first.IsZero() {
			st.first = recStart
		}
		st.attempted += int64(len(rec.classes))
		st.failed += int64(len(rec.classes) - len(done))
		st.done = append(st.done, done...)
		for _, s := range done {
			if s.lat <= sloMS {
				st.within++
			}
		}
		if sched != nil {
			for w := 0; w < r.next; w++ {
				st.lag = append(st.lag, ms(r.lag[w]))
			}
		}
	}
}

// serverSnap is the server's counters at one instant.
type serverSnap struct {
	m    serve.MetricsSnapshot
	hist serve.HistSnapshot
	at   time.Time
}

func snapServer(srv *serve.Server) serverSnap {
	return serverSnap{m: srv.MetricsSnapshot(), hist: srv.Metrics().Latency.Snapshot(), at: time.Now()}
}

// setServer records the serve and scheduler counters of the interval
// a→b.
func (r *report) setServer(a, b serverSnap) {
	h := b.hist.Sub(a.hist)
	r.set("serve.round_p50_ms", ms(h.Quantile(0.5)))
	r.set("serve.round_p99_ms", ms(h.Quantile(0.99)))
	r.set("serve.credit_stalls", float64(b.m.CreditStalls-a.m.CreditStalls))
	r.set("serve.session_errors", float64(b.m.SessionErrors-a.m.SessionErrors))
	r.set("serve.sessions_refused", float64(b.m.SessionsRefused-a.m.SessionsRefused))
	ticks := float64(b.m.SchedTicks - a.m.SchedTicks)
	r.set("stream.sched_fill_avg", float64(b.m.SchedWindows-a.m.SchedWindows)/ticks)
	r.set("stream.sched_ticks_per_s", ticks/b.at.Sub(a.at).Seconds())
	r.set("stream.sched_deferrals_per_tick", float64(b.m.SchedDeferrals-a.m.SchedDeferrals)/ticks)
	r.set("stream.sched_failures", float64(b.m.SchedFailures-a.m.SchedFailures))
}

// runServe runs one serve workload: set-up, inputs and oracle, warm-up,
// the measured run, and with -trace the layer replay.
func runServe(cfg config, stdout io.Writer) (*report, error) {
	spec := specFor(cfg.workload)
	var setups []time.Duration
	var s *server
	for i := 0; i < setupRuns; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if s, err = startServer(spec); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	defer s.close()

	recs, err := makeRecordings(spec, cfg.seed, s.net)
	if err != nil {
		return nil, err
	}
	if err := computeOracle(recs, s.net, spec); err != nil {
		return nil, err
	}
	if cfg.tamper {
		// Every recording, so whichever ones the run measures fail.
		for i := range recs {
			recs[i].classes[0] = (recs[i].classes[0] + 1) % dvs.GestureClasses
		}
	}

	start := time.Now()
	g := &generator{spec: spec, addr: s.addr, recs: recs, start: start}
	g.measure = start.Add(time.Duration(cfg.seconds / 10 * float64(time.Second)))
	g.end = g.measure.Add(time.Duration(cfg.seconds * float64(time.Second)))
	stats := make([]sessionStats, sessions)
	var wg sync.WaitGroup
	for i := range stats {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.session(i, &stats[i])
		}(i)
	}
	time.Sleep(time.Until(g.measure))
	rt0, sv0 := readRuntime(), snapServer(s.srv)
	wg.Wait()
	rt1, sv1 := readRuntime(), snapServer(s.srv)

	rep := newReport()
	var all sessionStats
	for _, st := range stats {
		all.attempted += st.attempted
		all.failed += st.failed
		all.within += st.within
		all.done = append(all.done, st.done...)
		all.lag = append(all.lag, st.lag...)
		if all.first.IsZero() || st.first.Before(all.first) {
			all.first = st.first
		}
	}
	rep.attempted, rep.failed = all.attempted, all.failed
	rep.setTiming(fastestBlocks(all.done, all.first, serveBlock), "windows")
	rep.output("slo_attainment %.6g (windows within %g ms of %d attempted)", float64(all.within)/float64(all.attempted), sloMS, all.attempted)
	if spec.paced {
		lag := summarize(all.lag)
		rep.set("bench.gen_lag_p50_ms", lag.p50)
		rep.set("bench.gen_lag_p99_ms", lag.p99)
	}
	rep.setServer(sv0, sv1)
	rep.setRuntime(rt0, rt1, float64(sv1.m.WindowsServed-sv0.m.WindowsServed))

	if cfg.trace {
		if err := traceServe(cfg, spec, s.net, recs, rep, stdout); err != nil {
			return nil, err
		}
	}
	return rep, rep.finish(setups)
}
