// Package repro's top-level benchmarks regenerate every table and figure
// of the paper at Tiny scale (one full experiment per benchmark
// iteration) and report the headline metrics alongside wall-clock time.
// Run with:
//
//	go test -bench=. -benchmem
//
// Use cmd/axsnn-repro for the full-scale artifacts; these benchmarks are
// the regression harness that keeps every experiment runnable and its
// key relationships intact.
package repro

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/dvs"
	"repro/internal/encoding"
	"repro/internal/exp"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/stream"
	"repro/internal/tensor"
)

var benchOpts = exp.Options{Scale: exp.Tiny, Seed: 7}

// benchExperiment runs one registered experiment per iteration and
// reports selected metrics (as percentages).
func benchExperiment(b *testing.B, id string, metrics ...string) {
	b.Helper()
	var last exp.Result
	for i := 0; i < b.N; i++ {
		r, err := exp.Run(id, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, m := range metrics {
		if v, ok := last.Metrics[m]; ok {
			b.ReportMetric(100*v, m+"_%")
		}
	}
}

// BenchmarkFig1 regenerates Fig. 1 (AccSNN vs AxSNN(0.1) under PGD).
func BenchmarkFig1(b *testing.B) {
	benchExperiment(b, "fig1", "clean_accsnn", "accsnn_eps1.0", "axsnn0.1_eps1.0")
}

// BenchmarkFig2 regenerates Fig. 2 (PGD across approximation levels).
func BenchmarkFig2(b *testing.B) {
	benchExperiment(b, "fig2", "AccSNN_eps0.9", "Ax(0.01)_eps0.9", "Ax(1)_eps0")
}

// BenchmarkFig3 regenerates Fig. 3 (BIM across approximation levels).
func BenchmarkFig3(b *testing.B) {
	benchExperiment(b, "fig3", "AccSNN_eps0.9", "Ax(0.01)_eps0.9")
}

// BenchmarkFig4 regenerates Fig. 4 (FP32 structural heatmaps, ε=1).
func BenchmarkFig4(b *testing.B) {
	benchExperiment(b, "fig4", "pgd_mean", "bim_mean", "pgd_best", "bim_best")
}

// BenchmarkFig5 regenerates Fig. 5 (FP16 structural heatmaps, ε=1).
func BenchmarkFig5(b *testing.B) {
	benchExperiment(b, "fig5", "pgd_mean", "bim_mean")
}

// BenchmarkFig6 regenerates Fig. 6 (INT8 structural heatmaps, ε=1).
func BenchmarkFig6(b *testing.B) {
	benchExperiment(b, "fig6", "pgd_mean", "bim_mean")
}

// BenchmarkFig7a regenerates Fig. 7a (clean AccSNN heatmap).
func BenchmarkFig7a(b *testing.B) {
	benchExperiment(b, "fig7a", "mean", "best")
}

// BenchmarkFig7b regenerates Fig. 7b (neuromorphic attack bars).
func BenchmarkFig7b(b *testing.B) {
	benchExperiment(b, "fig7b", "accsnn_clean", "accsnn_sparse", "accsnn_frame")
}

// BenchmarkTable1 regenerates Table I (Algorithm 1 best settings).
func BenchmarkTable1(b *testing.B) {
	benchExperiment(b, "table1")
}

// BenchmarkTable2 regenerates Table II (AQF recovered accuracy).
func BenchmarkTable2(b *testing.B) {
	benchExperiment(b, "table2", "baseline")
}

// BenchmarkEnergy regenerates the §I energy-efficiency ablation.
func BenchmarkEnergy(b *testing.B) {
	benchExperiment(b, "energy", "savings_level0.1", "acc_level0.1")
}

// BenchmarkAblationEncoding regenerates the spike-encoding extension.
func BenchmarkAblationEncoding(b *testing.B) {
	benchExperiment(b, "ablation-encoding", "rate_clean", "ttfs_clean")
}

// BenchmarkAblationAQF regenerates the AQF-constants extension.
func BenchmarkAblationAQF(b *testing.B) {
	benchExperiment(b, "ablation-aqf", "baseline")
}

// BenchmarkAblationFilters regenerates the AQF-vs-baseline-filter
// comparison under the three neuromorphic attacks.
func BenchmarkAblationFilters(b *testing.B) {
	benchExperiment(b, "ablation-filters", "Frame_aqf", "Frame_baf")
}

// BenchmarkHWMapping regenerates the Loihi-class deployment footprint.
func BenchmarkHWMapping(b *testing.B) {
	benchExperiment(b, "hw-mapping", "cores_level0", "cores_level0.3")
}

// ---------------------------------------------------------------------
// Component throughput benchmarks (the substrate's hot paths).

// BenchmarkSNNInference measures single-sample inference latency of the
// lite convolutional MNIST topology at T=8.
func BenchmarkSNNInference(b *testing.B) {
	r := rng.New(1)
	cfg := snn.DefaultConfig(0.5, 8)
	net := snn.MNISTNet(cfg, 1, 16, 16, true, r)
	dcfg := dataset.DefaultSynthConfig()
	img := dataset.RenderDigit(3, dcfg, r)
	frames := encoding.Rate{}.Encode(img, cfg.Steps, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.Predict(frames)
	}
}

// BenchmarkSNNInferenceBatch measures batched inference throughput:
// one PredictBatch over 32 samples per iteration, reporting the
// per-sample latency. Compare against BenchmarkSNNInference to see what
// the batched data path buys.
func BenchmarkSNNInferenceBatch(b *testing.B) {
	const batch = 32
	r := rng.New(1)
	cfg := snn.DefaultConfig(0.5, 8)
	net := snn.MNISTNet(cfg, 1, 16, 16, true, r)
	dcfg := dataset.DefaultSynthConfig()
	samples := make([][]*tensor.Tensor, batch)
	for i := range samples {
		img := dataset.RenderDigit(i%10, dcfg, r)
		samples[i] = encoding.Rate{}.Encode(img, cfg.Steps, r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.PredictBatch(samples)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/sample")
}

// trainStepFixture builds the BenchmarkTrainStep workload: the lite
// convolutional MNIST topology at T=8 with a 16-sample rate-coded
// minibatch, the snn.Train hot loop's shape.
func trainStepFixture() (*snn.Network, [][]*tensor.Tensor, []int) {
	const batch = 16
	r := rng.New(2)
	cfg := snn.DefaultConfig(0.5, 8)
	net := snn.MNISTNet(cfg, 1, 16, 16, true, r)
	dcfg := dataset.DefaultSynthConfig()
	samples := make([][]*tensor.Tensor, batch)
	labels := make([]int, batch)
	for i := range samples {
		labels[i] = i % 10
		img := dataset.RenderDigit(labels[i], dcfg, r)
		samples[i] = encoding.Rate{}.Encode(img, cfg.Steps, r)
	}
	return net, samples, labels
}

// BenchmarkTrainStep measures the steady-state arena training step: one
// minibatch cycle (zeroing, frame stacking, training forward, loss,
// BPTT, optimizer step — gradient clipping is off here, as in the
// default TrainOptions; the snn property test covers the clipped
// cycle) against a TrainScratch. The step fans out over
// min(Workers(), 16) sample blocks on the shared pool, and the
// optimizer over parameter ranges; blocks and fan-out bodies are built
// by the warm-up step and pool launches allocate nothing, so allocs/op
// is 0 at any worker count; CI gates this benchmark (and
// BenchmarkPredict) at 0 allocs/op.
func BenchmarkTrainStep(b *testing.B) {
	net, samples, labels := trainStepFixture()
	ts := net.AcquireTrainScratch()
	defer net.ReleaseTrain(ts)
	opt := snn.NewAdam(2e-3)
	scale := 1 / float32(len(samples))
	step := func() {
		ts.ZeroGrads()
		net.TrainStepScratch(samples, labels, ts)
		opt.Step(ts.Params(), ts.Grads(), scale)
	}
	step() // warm the arena and the optimizer state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	// Stop before reporting: ReportMetric's bookkeeping must not count
	// against the 0 allocs/op gate at -benchtime=1x.
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(samples)), "ns/sample")
}

// BenchmarkTrainFit times one snn.Train fit at offline-pgd's set-up
// shape: the lite MNIST net on 600 synthetic 16×16 digits at T = 8,
// two epochs of 16-sample minibatches, Direct coding, Adam 2e-3. Each
// iteration runs a fit at one worker and then one at two, where every
// minibatch fans out over two sample blocks; it reports ms/fit at each
// budget and their ratio w2/w1, from which the host's speed swings
// largely cancel.
func BenchmarkTrainFit(b *testing.B) {
	defer tensor.SetWorkers(0)
	scfg := dataset.DefaultSynthConfig()
	train := dataset.GenerateSynth(600, scfg, 4)
	fit := func(workers int) time.Duration {
		tensor.SetWorkers(workers)
		net := snn.MNISTNet(snn.DefaultConfig(1.0, 8), 1, scfg.H, scfg.W, true, rng.New(4))
		opt := snn.TrainOptions{Epochs: 2, BatchSize: 16, Optimizer: snn.NewAdam(2e-3), Encoder: encoding.Direct{}, Seed: 5}
		t0 := time.Now()
		snn.Train(net, train, opt)
		return time.Since(t0)
	}
	var w1, w2 time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w1 += fit(1)
		w2 += fit(2)
	}
	b.StopTimer()
	b.ReportMetric(float64(w1.Milliseconds())/float64(b.N), "ms/fit-w1")
	b.ReportMetric(float64(w2.Milliseconds())/float64(b.N), "ms/fit-w2")
	b.ReportMetric(float64(w2)/float64(w1), "w2/w1")
}

// BenchmarkLIF measures one time step of a LIF layer over a batch, with
// two kernels: kernel=sse is tensor.LIFStepInto and tensor.LIFGradInto,
// which every arena pass runs (SSE on amd64), and kernel=go is the
// portable loops tensor.LIFStepGo and tensor.LIFGradGo, a branch per
// neuron. The ops are the forward without the pre-reset cache (the
// inference pass, op=fwd), with it (the training and input-gradient
// passes, op=fwd-pre), and the surrogate-gradient step on the last
// time step (op=bwd-first, no carry yet) and on every other one
// (op=bwd). The shapes are offline-pgd's lif1 (MNISTNet lite, 6×16×16,
// batch 16) and the served DVSNet-lite lif1 (8×16×16, batch 4), at
// both nets' threshold 1, leak 0.9 and sharpness 4. Each neuron's input
// current is drawn once from a Gaussian with σ = 1 and the membrane
// carries over from one iteration to the next as it does between
// steps, so about 30% of the neurons spike per iteration, in a pattern
// that varies from neuron to neuron. It reports ns/neuron; compare the
// two kernels within one run.
func BenchmarkLIF(b *testing.B) {
	const vth, decay, beta = 1, 0.9, 4
	shapes := []struct {
		name         string
		batch, units int
	}{
		{"mnist-lif1", 16, 6 * 16 * 16},
		{"dvs-lif1", 4, 8 * 16 * 16},
	}
	type kernels struct {
		step func(v, x, out, pre []float32, decay, vth float32) int
		grad func(carry, grad, pre []float32, vth, beta, decay float32, first bool)
	}
	for _, sh := range shapes {
		n := sh.batch * sh.units
		r := rng.New(5)
		x, grad := make([]float32, n), make([]float32, n)
		for i := range x {
			x[i], grad[i] = r.NormFloat32(), r.NormFloat32()
		}
		v, out, pre, carry := make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)
		tensor.LIFStepInto(v, x, out, pre, decay, vth) // a realistic pre-reset cache for the backward
		for _, k := range []struct {
			name string
			kernels
		}{
			{"sse", kernels{tensor.LIFStepInto, tensor.LIFGradInto}},
			{"go", kernels{tensor.LIFStepGo, tensor.LIFGradGo}},
		} {
			ops := []struct {
				name string
				run  func()
			}{
				{"fwd", func() { k.step(v, x, out, nil, decay, vth) }},
				{"fwd-pre", func() { k.step(v, x, out, pre, decay, vth) }},
				{"bwd-first", func() { k.grad(carry, grad, pre, vth, beta, decay, true) }},
				{"bwd", func() { k.grad(carry, grad, pre, vth, beta, decay, false) }},
			}
			for _, op := range ops {
				b.Run(fmt.Sprintf("%s/op=%s/kernel=%s", sh.name, op.name, k.name), func(b *testing.B) {
					op.run()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						op.run()
					}
					b.StopTimer()
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/neuron")
				})
			}
		}
	}
}

// BenchmarkPGDCraft measures the crafting the paper's Fig. 1 loop runs:
// one PGD(1).PerturbSet over a 64-image synthetic set on the lite MNIST
// net (16×16, T = 8), fanned out over the worker pool, each block on
// the arena's input-gradient pass. It reports ns per crafted
// sample.
func BenchmarkPGDCraft(b *testing.B) {
	net := snn.MNISTNet(snn.DefaultConfig(0.5, 8), 1, 16, 16, true, rng.New(1))
	set := dataset.GenerateSynth(64, dataset.DefaultSynthConfig(), 3)
	atk := attack.PGD(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = atk.PerturbSet(net, set, rng.New(7))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*set.Len()), "ns/sample")
}

// BenchmarkPredict measures the steady-state single-sample inference
// hot path: Predict runs a batch of one through the arena's inference
// pass, acquiring and releasing the network's pooled TrainScratch
// internally. Compare allocs/op against BenchmarkPredictFresh to see
// what the arena eliminates.
func BenchmarkPredict(b *testing.B) {
	r := rng.New(1)
	cfg := snn.DefaultConfig(0.5, 8)
	net := snn.MNISTNet(cfg, 1, 16, 16, true, r)
	dcfg := dataset.DefaultSynthConfig()
	img := dataset.RenderDigit(3, dcfg, r)
	frames := encoding.Rate{}.Encode(img, cfg.Steps, r)
	net.Predict(frames) // warm the arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.Predict(frames)
	}
}

// BenchmarkPredictInt8 measures the same steady-state inference hot
// path through the quantized INT8 tier: per-channel int8 weight panels
// (built cold, before the timer), int32 accumulation, float32 epilogue.
// The int8 kernels are serial and reuse the arena's scratch, so
// allocs/op is 0 at any worker count. CI's zero-alloc and ns/op gates
// cover this benchmark. On this topology INT8 is slower than FP32: its
// conv scatter also takes each receptive field's max, quantizes the
// inputs against it and converts the integer sums back to float32.
// BenchmarkPredictTiers measures the ratio within one run.
func BenchmarkPredictInt8(b *testing.B) {
	r := rng.New(1)
	cfg := snn.DefaultConfig(0.5, 8)
	net := snn.MNISTNet(cfg, 1, 16, 16, true, r)
	if err := net.BuildInt8Panels(); err != nil {
		b.Fatal(err)
	}
	if err := net.SetTier(snn.TierINT8); err != nil {
		b.Fatal(err)
	}
	dcfg := dataset.DefaultSynthConfig()
	img := dataset.RenderDigit(3, dcfg, r)
	frames := encoding.Rate{}.Encode(img, cfg.Steps, r)
	net.Predict(frames) // warm the arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.Predict(frames)
	}
}

// BenchmarkPredictTiers measures the INT8 tier against FP32 within one
// run, on BenchmarkPredict's net and input: each iteration times a block
// of FP32 Predict calls and a block of INT8 ones, switching the tier
// between blocks and alternating which goes first, so both tiers see
// the same host load. It reports each tier's ns per Predict and
// int8/fp32, their ratio, which a host's speed swings cancel out of.
func BenchmarkPredictTiers(b *testing.B) {
	const block = 8
	r := rng.New(1)
	cfg := snn.DefaultConfig(0.5, 8)
	net := snn.MNISTNet(cfg, 1, 16, 16, true, r)
	if err := net.BuildInt8Panels(); err != nil {
		b.Fatal(err)
	}
	img := dataset.RenderDigit(3, dataset.DefaultSynthConfig(), r)
	frames := encoding.Rate{}.Encode(img, cfg.Steps, r)
	tiers := [2]snn.PrecisionTier{snn.TierFP32, snn.TierINT8}
	var elapsed [2]time.Duration
	run := func(k int) {
		if err := net.SetTier(tiers[k]); err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		for j := 0; j < block; j++ {
			_ = net.Predict(frames)
		}
		elapsed[k] += time.Since(start)
	}
	run(0) // warm both tiers' arena shapes
	run(1)
	elapsed = [2]time.Duration{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i % 2)
		run(1 - i%2)
	}
	b.StopTimer()
	fp := float64(elapsed[0].Nanoseconds()) / float64(b.N*block)
	i8 := float64(elapsed[1].Nanoseconds()) / float64(b.N*block)
	b.ReportMetric(fp, "fp32_ns/predict")
	b.ReportMetric(i8, "int8_ns/predict")
	b.ReportMetric(i8/fp, "int8/fp32")
}

// BenchmarkNeuromorphicPerturbSet measures the batched event-attack
// path: one Sparse.PerturbSet over a small gesture set per iteration,
// reporting per-stream latency. Worker scaling shows up here on
// multi-core machines (per-stream crafting fans out over the pool).
func BenchmarkNeuromorphicPerturbSet(b *testing.B) {
	gcfg := dvs.DefaultGestureConfig()
	gcfg.Duration = 400
	set := dvs.GenerateGestureSet(8, gcfg, 5)
	net := snn.DVSNet(snn.DefaultConfig(1.0, 8), 32, 32, 11, true, rng.New(6), nil)
	atk := attack.NewSparse()
	atk.MaxIter = 3
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = atk.PerturbSet(net, set)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*set.Len()), "ns/stream")
}

// BenchmarkAQFFilterSet measures batched AQF filtering: one FilterSet
// over a set of streams per iteration, reporting per-stream latency.
func BenchmarkAQFFilterSet(b *testing.B) {
	streams := make([]*dvs.Stream, 8)
	for i := range streams {
		streams[i] = dvs.GenerateGesture(i%11, dvs.DefaultGestureConfig(), rng.New(uint64(40+i)))
	}
	p := defense.DefaultAQFParams(0.015)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = defense.FilterSet(streams, p)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(streams)), "ns/stream")
}

// BenchmarkAQFFilter measures AQF event-filtering throughput.
func BenchmarkAQFFilter(b *testing.B) {
	s := dvs.GenerateGesture(7, dvs.DefaultGestureConfig(), rng.New(4))
	p := defense.DefaultAQFParams(0.015)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = defense.AQF(s, p)
	}
	b.ReportMetric(float64(len(s.Events)), "events/op")
}

// BenchmarkIncrementalAQF measures the cross-window online AQF pushing
// the same flow in reader-sized chunks — the filter the streaming
// pipeline and the serve sessions default to. Steady state reuses every
// internal buffer, so throughput is directly comparable to the
// whole-stream BenchmarkAQFFilter above.
func BenchmarkIncrementalAQF(b *testing.B) {
	s := dvs.GenerateGesture(7, dvs.DefaultGestureConfig(), rng.New(4))
	p := defense.DefaultAQFParams(0.015)
	f, err := defense.NewIncrementalAQF(s.W, s.H, s.Duration, p)
	if err != nil {
		b.Fatal(err)
	}
	const chunk = 512
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Reset(s.Duration)
		for lo := 0; lo < len(s.Events); lo += chunk {
			hi := lo + chunk
			if hi > len(s.Events) {
				hi = len(s.Events)
			}
			if _, err := f.Push(s.Events[lo:hi]); err != nil {
				b.Fatal(err)
			}
		}
		f.Flush()
	}
	b.ReportMetric(float64(len(s.Events)), "events/op")
}

// BenchmarkSparseAttack measures the gradient-guided event attack on one
// stream.
func BenchmarkSparseAttack(b *testing.B) {
	gcfg := dvs.DefaultGestureConfig()
	gcfg.Duration = 400
	s := dvs.GenerateGesture(2, gcfg, rng.New(5))
	net := snn.DVSNet(snn.DefaultConfig(1.0, 8), 32, 32, 11, true, rng.New(6), nil)
	atk := attack.NewSparse()
	atk.MaxIter = 5
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = atk.Perturb(net, s, 2)
	}
}

// BenchmarkStreamWindow measures one steady-state window of the
// streaming pipeline — windowed voxelization into recycled frames plus
// batched arena inference — the per-window cost that must stay at 0
// allocs/op (CI's zero-alloc gate covers this benchmark).
func BenchmarkStreamWindow(b *testing.B) {
	gcfg := dvs.DefaultGestureConfig()
	gcfg.Duration = 400
	s := dvs.GenerateGesture(4, gcfg, rng.New(8))
	net := snn.DVSNet(snn.DefaultConfig(1.0, 8), 32, 32, 11, true, rng.New(6), nil)
	const windowMS = 100.0
	windows := dvs.SplitWindows(s, windowMS)
	frames := make([]*tensor.Tensor, net.Cfg.Steps)
	for i := range frames {
		frames[i] = tensor.New(2, 32, 32)
	}
	samples := [][]*tensor.Tensor{frames}
	out := make([]int, 1)
	window := func(i int) {
		dvs.VoxelizeWindowInto(frames, windows[i%len(windows)].Events, 32, 32, 0, windowMS)
		net.PredictBatchInto(samples, out)
	}
	window(0) // warm the arena and frame buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		window(i)
	}
}

// BenchmarkStreamDecode measures the streaming codec alone: each op
// opens a fresh reader (NewStreamReaderOptions) on a 20k-event
// recording and drains it in the pipeline's default 4096-event chunks,
// reporting ns/event. Behind the serve default's 1024-event reorder
// buffer it covers three arrival orders: sorted; lagged, where every
// other event arrives K−1 positions late; and descending blocks of
// K+1, where each late event lands ahead of about K/2 buffered ones —
// a heavy case for the buffer's copies that the window still accepts.
// Strict mode (K=0) emits file order whatever the arrival, so it runs
// sorted only.
func BenchmarkStreamDecode(b *testing.B) {
	const events, k = 20000, 1024
	// lagged: odd position i overtakes K−1 more even positions than odd
	// ones, so it arrives exactly K−1 places late.
	lagged := make([]int, events)
	for i := range lagged {
		lagged[i] = i
	}
	key := func(i int) int { return i + 2*(k-1)*(i%2) }
	sort.SliceStable(lagged, func(a, b int) bool { return key(lagged[a]) < key(lagged[b]) })
	blocks := make([]int, 0, events)
	for lo := 0; lo < events; lo += k + 1 {
		for i := min(lo+k, events-1); i >= lo; i-- {
			blocks = append(blocks, i)
		}
	}
	encode := func(order []int) []byte {
		s := &dvs.Stream{W: 128, H: 128, Duration: 1000, Events: make([]dvs.Event, events)}
		for p := range s.Events {
			i := p
			if order != nil {
				i = order[p]
			}
			s.Events[p] = dvs.Event{X: i % 128, Y: i / 128 % 128, P: int8(1 - 2*(i%2)), T: float64(i) * 0.05}
		}
		var buf bytes.Buffer
		if err := dvs.WriteAEDAT(&buf, s); err != nil {
			b.Fatal(err)
		}
		return buf.Bytes()
	}
	chunk := make([]dvs.Event, 4096)
	for _, c := range []struct {
		name    string
		reorder int
		order   []int
	}{
		{"K=0/sorted", 0, nil},
		{"K=1024/sorted", k, nil},
		{"K=1024/lagged", k, lagged},
		{"K=1024/blocks", k, blocks},
	} {
		data := encode(c.order)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sr, err := dvs.NewStreamReaderOptions(bytes.NewReader(data), dvs.StreamReaderOptions{ReorderWindow: c.reorder})
				if err != nil {
					b.Fatal(err)
				}
				got := 0
				for {
					n, err := sr.ReadChunk(chunk)
					got += n
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				if got != events {
					b.Fatalf("decoded %d events, want %d", got, events)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
		})
	}
}

// BenchmarkStreamPipeline measures the end-to-end streaming serving
// path: AEDAT decode, windowing, voxelization and batched inference
// over a multi-gesture flow, reporting per-window latency and event
// throughput.
func BenchmarkStreamPipeline(b *testing.B) {
	gcfg := dvs.DefaultGestureConfig()
	gcfg.Duration = 400
	segs := make([]*dvs.Stream, 8)
	for k := range segs {
		segs[k] = dvs.GenerateGesture(k%dvs.GestureClasses, gcfg, rng.New(uint64(80+k)))
	}
	flow, err := dvs.ConcatStreams(segs...)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dvs.WriteAEDAT(&buf, flow); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	net := snn.DVSNet(snn.DefaultConfig(1.0, 8), 32, 32, 11, true, rng.New(6), nil)
	p, err := stream.NewPipeline(net, stream.Options{WindowMS: 100, ChunkEvents: 1024})
	if err != nil {
		b.Fatal(err)
	}
	emit := func(stream.Result) error { return nil }
	windows := dvs.NumWindows(flow.Duration, 100)
	// One reader, re-pointed per Run, so the loop itself allocates nothing.
	rd := bytes.NewReader(data)
	if err := p.Run(rd, emit); err != nil { // warm the slots
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(data)
		if err := p.Run(rd, emit); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*windows), "ns/window")
	b.ReportMetric(float64(b.N*len(flow.Events))/b.Elapsed().Seconds(), "events/s")
}
