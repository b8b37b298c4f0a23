// Command axsnn-train trains an accurate SNN on the synthetic digit
// corpus (or real MNIST IDX files, if provided) and saves the model.
//
// Usage:
//
//	axsnn-train [-vth 0.25] [-steps 8] [-epochs 4] [-train 600] [-test 120]
//	            [-arch dense|conv] [-mnist dir] [-o model.bin] [-seed N]
//	            [-workers N]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/dataset"
	"repro/internal/encoding"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("axsnn-train: ")

	vth := flag.Float64("vth", 0.25, "LIF threshold voltage")
	steps := flag.Int("steps", 8, "time steps per sample")
	epochs := flag.Int("epochs", 4, "training epochs")
	trainN := flag.Int("train", 600, "training samples")
	testN := flag.Int("test", 120, "test samples")
	arch := flag.String("arch", "dense", "architecture: dense or conv")
	size := flag.Int("size", 14, "image height/width")
	mnistDir := flag.String("mnist", "", "directory with real MNIST IDX files (optional)")
	out := flag.String("o", "model.bin", "output model path")
	seed := flag.Uint64("seed", 1, "seed")
	workers := flag.Int("workers", 0, "worker budget for evaluation; training runs serially (0 = all cores; results are the same at every value)")
	flag.Parse()

	tensor.SetWorkers(*workers)

	scfg := dataset.DefaultSynthConfig()
	scfg.H, scfg.W = *size, *size
	train, test, real := dataset.MNISTOrSynth(*mnistDir, *trainN, *testN, scfg, *seed)
	if real {
		log.Printf("loaded real MNIST from %s (%d train / %d test)", *mnistDir, train.Len(), test.Len())
	} else {
		log.Printf("using synthetic digit corpus (%d train / %d test)", train.Len(), test.Len())
	}

	cfg := snn.DefaultConfig(float32(*vth), *steps)
	r := rng.New(*seed)
	var net *snn.Network
	switch *arch {
	case "conv":
		net = snn.MNISTNet(cfg, 1, train.H, train.W, true, r)
	case "dense":
		net = snn.DenseNet(cfg, train.H*train.W, 64, train.Classes, r)
	default:
		log.Fatalf("unknown architecture %q", *arch)
	}

	snn.Train(net, train, snn.TrainOptions{
		Epochs:    *epochs,
		BatchSize: 16,
		Optimizer: snn.NewAdam(2e-3),
		Encoder:   encoding.Rate{},
		Seed:      *seed + 1,
		OnEpoch: func(e int, loss float64) {
			log.Printf("epoch %d: mean loss %.4f", e, loss)
		},
	})
	acc := snn.Accuracy(net, test, encoding.Rate{}, *seed+2)
	fmt.Printf("test accuracy: %.1f%%\n", 100*acc)

	if err := net.SaveFile(*out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved model to %s\n", *out)
}
