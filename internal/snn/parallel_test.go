package snn

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/encoding"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// evalNet returns a briefly trained dense classifier and a 150-sample
// test set: 5 chunks of evalChunk, split unevenly by every round size.
func evalNet(t *testing.T) (*Network, *dataset.Set) {
	t.Helper()
	net := DenseNet(DefaultConfig(0.5, 6), 144, 32, 10, rng.New(1))
	Train(net, tinyTrainSet(100, 1), TrainOptions{
		Epochs: 1, BatchSize: 16, Optimizer: NewAdam(3e-3), Encoder: encoding.Rate{}, Seed: 3,
	})
	return net, tinyTrainSet(150, 2)
}

// serialCorrect is the reference evaluation: PredictBatch per
// evalChunk-sample chunk, in order, on the network itself.
func serialCorrect(net *Network, samples [][]*tensor.Tensor, labels []int) int {
	correct := 0
	for b := 0; b < len(samples); b += evalChunk {
		e := min(b+evalChunk, len(samples))
		for i, p := range net.PredictBatch(samples[b:e]) {
			if p == labels[b+i] {
				correct++
			}
		}
	}
	return correct
}

// encodeInOrder encodes every sample in order from one seeded RNG.
func encodeInOrder(net *Network, set *dataset.Set, enc encoding.Encoder, seed uint64) ([][]*tensor.Tensor, []int) {
	r := rng.New(seed)
	samples := make([][]*tensor.Tensor, set.Len())
	labels := make([]int, set.Len())
	for i, s := range set.Samples {
		samples[i], labels[i] = enc.Encode(s.Image, net.Cfg.Steps, r), s.Label
	}
	return samples, labels
}

// TestAccuracyWorkerInvariance pins Accuracy's sample-level fan-out:
// with the stochastic Rate encoder the result must be the same at every
// worker count and equal to encoding in order from rng.New(seed) and
// predicting each chunk serially.
func TestAccuracyWorkerInvariance(t *testing.T) {
	defer tensor.SetWorkers(0)
	net, test := evalNet(t)
	samples, labels := encodeInOrder(net, test, encoding.Rate{}, 42)
	want := float64(serialCorrect(net, samples, labels)) / float64(test.Len())
	if want == 0 || want == 1 {
		t.Fatalf("reference accuracy %v is degenerate; the test would be vacuous", want)
	}
	for _, workers := range []int{1, 2, 4, 9} {
		tensor.SetWorkers(workers)
		if got := Accuracy(net, test, encoding.Rate{}, 42); got != want {
			t.Fatalf("%d workers: Accuracy %v, want %v", workers, got, want)
		}
	}
}

// TestAccuracyMatchesSerialReference pins Accuracy at the default worker
// budget to the serial reference for both a deterministic and a
// stochastic encoder, on a convolutional network.
func TestAccuracyMatchesSerialReference(t *testing.T) {
	net := MNISTNet(DefaultConfig(0.5, 4), 1, 12, 12, true, rng.New(3))
	test := tinyTrainSet(70, 4)
	for _, enc := range []encoding.Encoder{encoding.Direct{}, encoding.Rate{}} {
		samples, labels := encodeInOrder(net, test, enc, 7)
		want := float64(serialCorrect(net, samples, labels)) / float64(test.Len())
		if got := Accuracy(net, test, enc, 7); got != want {
			t.Fatalf("%s: Accuracy %v, want %v", enc.Name(), got, want)
		}
	}
}

// TestAccuracyFramesWorkerInvariance is the frame-sample variant: the
// result must match the serial reference at every worker count.
func TestAccuracyFramesWorkerInvariance(t *testing.T) {
	defer tensor.SetWorkers(0)
	net, test := evalNet(t)
	samples, labels := encodeInOrder(net, test, encoding.Rate{}, 43)
	want := float64(serialCorrect(net, samples, labels)) / float64(len(samples))
	for _, workers := range []int{1, 2, 4, 9} {
		tensor.SetWorkers(workers)
		if got := AccuracyFrames(net, samples, labels); got != want {
			t.Fatalf("%d workers: AccuracyFrames %v, want %v", workers, got, want)
		}
	}
}

func TestAccuracyEmptySet(t *testing.T) {
	r := rng.New(5)
	net := DenseNet(DefaultConfig(0.5, 4), 4, 4, 2, r)
	if Accuracy(net, tinyTrainSet(0, 6), encoding.Direct{}, 1) != 0 {
		t.Fatal("empty set must yield 0")
	}
	if AccuracyFrames(net, nil, nil) != 0 {
		t.Fatal("empty frame set must yield 0")
	}
}

func TestSaveLoadPreservesMasks(t *testing.T) {
	r := rng.New(7)
	a := DenseNet(DefaultConfig(0.5, 4), 16, 8, 4, r)
	// Install a mask by hand on the first dense layer.
	d := a.Layers[1].(*Dense)
	d.Mask = tensor.New(d.W.Shape...)
	for i := range d.Mask.Data {
		if i%2 == 0 {
			d.Mask.Data[i] = 1
		}
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := DenseNet(DefaultConfig(0.5, 4), 16, 8, 4, rng.New(8))
	if err := b.Load(&buf); err != nil {
		t.Fatal(err)
	}
	bd := b.Layers[1].(*Dense)
	if bd.Mask == nil {
		t.Fatal("mask lost in round-trip")
	}
	for i := range d.Mask.Data {
		if bd.Mask.Data[i] != d.Mask.Data[i] {
			t.Fatal("mask values differ after round-trip")
		}
	}
	// Unmasked layers stay unmasked.
	if b.Layers[3].(*Dense).Mask != nil {
		t.Fatal("phantom mask appeared")
	}
	// Behavioural equality.
	img := tensor.New(16)
	img.Fill(0.8)
	fr := []*tensor.Tensor{img}
	la := forwardOne(a, fr, false)
	lb := forwardOne(b, fr, false)
	for i := range la.Data {
		if la.Data[i] != lb.Data[i] {
			t.Fatal("masked networks diverge after round-trip")
		}
	}
}
