package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"time"

	"repro/internal/approx"
	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/encoding"
	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// The offline workload is the paper's Fig. 1 loop: PGD at ε = 1 crafted
// on the accurate SNN, evaluated on it and on its AxSNN at level 0.1.
const (
	offlineSet   = 64   // adversarial samples per round
	offlineBatch = 32   // the chunk PerturbSet and snn.Accuracy batch by
	pgdEps       = 1.0  // Fig. 1's budget
	axLevel      = 0.1  // the AxSNN's approximation level
	minCleanAcc  = 0.9  // a model below this is not the paper's AccSNN
	pgdSeed      = 7001 // the round's fixed attack RNG
	evalSeed     = 7002
	// roundPasses is how many untraced/traced round pairs a traced
	// offline run alternates.
	roundPasses = 2
)

// offlineModels is one set-up of offline-pgd.
type offlineModels struct {
	acc, ax *snn.Network
	pruned  float64
}

// buildOffline is the set-up a user of the design flow pays: train the
// accurate MNIST-style SNN (lite, 16×16, T = 8, Vth 1.0, Direct
// encoding) and approximate it.
func buildOffline() *offlineModels {
	scfg := dataset.DefaultSynthConfig()
	train := dataset.GenerateSynth(600, scfg, modelSeed)
	acc := snn.MNISTNet(snn.DefaultConfig(1.0, steps), 1, scfg.H, scfg.W, true, rng.New(modelSeed))
	snn.Train(acc, train, snn.TrainOptions{
		Epochs: 2, BatchSize: 16, Optimizer: snn.NewAdam(2e-3), Encoder: encoding.Direct{}, Seed: modelSeed + 1,
	})
	calib := make([][]*tensor.Tensor, 16)
	for i := range calib {
		calib[i] = encoding.Direct{}.Encode(train.Samples[i].Image, steps, nil)
	}
	ax, rep := approx.Approximate(acc, approx.Params{Level: axLevel, Scale: quant.FP32}, calib)
	return &offlineModels{acc: acc, ax: ax, pruned: rep.TotalPrunedFraction()}
}

// roundResult is what a round must reproduce exactly.
type roundResult struct {
	advHash       uint64
	accAcc, axAcc float64
}

// round crafts the adversarial set and evaluates both nets on it.
func (m *offlineModels) round(set *dataset.Set, tr *tracer, id int) roundResult {
	root := tr.begin("round", -1, id)
	defer tr.end(root)
	sp := tr.begin("attack.pgd", root, id)
	adv := attack.PGD(pgdEps).PerturbSet(m.acc, set, rng.New(pgdSeed))
	tr.end(sp)
	sp = tr.begin("snn.eval_acc", root, id)
	a := snn.Accuracy(m.acc, adv, encoding.Direct{}, evalSeed)
	tr.end(sp)
	sp = tr.begin("snn.eval_ax", root, id)
	b := snn.Accuracy(m.ax, adv, encoding.Direct{}, evalSeed)
	tr.end(sp)
	return roundResult{advHash: hashSet(adv), accAcc: a, axAcc: b}
}

func hashSet(s *dataset.Set) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, sm := range s.Samples {
		for _, v := range sm.Image.Data {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
		binary.LittleEndian.PutUint32(b[:], uint32(sm.Label))
		h.Write(b[:])
	}
	return h.Sum64()
}

func runOffline(cfg config, stdout io.Writer) (*report, error) {
	var setups []time.Duration
	var m *offlineModels
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		m = buildOffline()
		setups = append(setups, time.Since(t0))
	}
	set := dataset.GenerateSynth(offlineSet, dataset.DefaultSynthConfig(), cfg.seed)
	off := newTracer(false)
	ref := m.round(set, off, 0)
	if cfg.tamper {
		ref.advHash++
	}
	clean := snn.Accuracy(m.acc, set, encoding.Direct{}, evalSeed)
	if clean < minCleanAcc {
		return nil, fmt.Errorf("clean AccSNN accuracy %.4g is below %g", clean, minCleanAcc)
	}

	rep := newReport()
	start := time.Now()
	measure := start.Add(time.Duration(cfg.seconds / 10 * float64(time.Second)))
	end := measure.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for time.Now().Before(measure) {
		m.round(set, off, 0)
	}
	rt0, first := readRuntime(), time.Now()
	// Every sample of a round completes with it, so its latency is the
	// round's duration, and a round is a timing block.
	var done []sample
	for rounds := 0; rounds == 0 || time.Now().Before(end); rounds++ {
		t0 := time.Now()
		got := m.round(set, off, rounds)
		rep.attempted += offlineSet
		if got != ref {
			rep.failed += offlineSet
			continue
		}
		s := sample{at: time.Now(), lat: ms(time.Since(t0))}
		for i := 0; i < offlineSet; i++ {
			done = append(done, s)
		}
	}
	rt1 := readRuntime()
	rep.setTiming(fastestBlocks(done, first, offlineSet), "samples")
	rep.set("approx.pruned_frac", m.pruned)
	rep.setRuntime(rt0, rt1, float64(rep.attempted))
	rep.output("clean_acc %.4f", clean)
	rep.output("adv_acc_accsnn %.4f", ref.accAcc)
	rep.output("adv_acc_axsnn %.4f", ref.axAcc)

	if cfg.trace {
		if err := traceOffline(cfg, m, set, ref, rep, stdout); err != nil {
			return nil, err
		}
	}
	return rep, rep.finish(setups)
}

// traceOffline is the traced run of offline-pgd: rounds with and without
// spans, then predict timing, energy accounting and the layer-by-layer
// pass on the clean set.
func traceOffline(cfg config, m *offlineModels, set *dataset.Set, ref roundResult, rep *report, stdout io.Writer) error {
	tr := newTracer(true)
	var wall [2]time.Duration // untraced, traced
	for pass := 0; pass < 2*roundPasses; pass++ {
		traced := pass % 2
		t := tr
		if traced == 0 {
			t = newTracer(false)
		}
		t0 := time.Now()
		got := m.round(set, t, pass)
		wall[traced] += time.Since(t0)
		rep.attempted += offlineSet
		if got != ref {
			rep.failed += offlineSet
		}
	}
	// Every pass does the same work, so throughput is inverse wall time.
	rep.set("bench.trace_overhead_frac", 1-float64(wall[0])/float64(wall[1]))

	samples := make([][]*tensor.Tensor, set.Len())
	for i, sm := range set.Samples {
		samples[i] = encoding.Direct{}.Encode(sm.Image, steps, nil)
	}
	root := tr.begin("layers", -1, 2*roundPasses)
	timePredict(m.acc, samples, tr, root)
	sops, calls := energyPass(m.ax, samples, tr, root)
	lp := layerPass(m.acc, samples, offlineBatch, tr, root)
	tr.end(root)

	by, err := writeTrace(cfg, tr, stdout)
	if err != nil {
		return err
	}
	n := float64(roundPasses * offlineSet)
	rep.set("attack.pgd_ns_per_sample", by["attack.pgd"].perItem(n))
	rep.set("snn.eval_acc_ns_per_sample", by["snn.eval_acc"].perItem(n))
	rep.set("snn.eval_ax_ns_per_sample", by["snn.eval_ax"].perItem(n))
	rep.set("approx.sops_per_sample", sops/float64(len(samples)))
	rep.set("approx.batch_sops_ns_per_batch", by["approx.batch_sops"].perItem(float64(calls)))
	rep.setPredict(by, len(samples))
	rep.setLayers(lp, by)
	return nil
}

// energyPass classifies the samples on a clone of the AxSNN in
// evaluation-sized batches and accounts each batch's synaptic work with
// its energy model, returning total SOPs and the number of batches.
func energyPass(ax *snn.Network, samples [][]*tensor.Tensor, tr *tracer, parent int) (float64, int) {
	clone := ax.CloneArchitecture()
	em := approx.NewEnergyModel(ax)
	out := make([]int, offlineBatch)
	total, calls := 0.0, 0
	for lo := 0; lo+offlineBatch <= len(samples); lo += offlineBatch {
		group := samples[lo : lo+offlineBatch]
		input := 0.0
		for _, frames := range group {
			for _, f := range frames {
				input += f.Sum()
			}
		}
		clone.ResetStats()
		clone.PredictBatchInto(group, out)
		sp := tr.begin("approx.batch_sops", parent, -1)
		sops, _ := em.BatchSOPs(clone, input, len(group))
		tr.end(sp)
		total += sops
		calls++
	}
	return total, calls
}
