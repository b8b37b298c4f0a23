// Command axsnn-attack evaluates a saved model (from axsnn-train) under
// the gradient-based attacks at a range of perturbation budgets,
// optionally after approximation and precision scaling.
//
// Usage:
//
//	axsnn-attack -model model.bin [-arch dense|conv] [-attack pgd|bim|fgsm]
//	             [-eps 0.1,0.5,1.0] [-level 0] [-precision fp32]
//	             [-test 120] [-size 14] [-seed N]
//
// The adversary follows the paper's threat model: a surrogate of the
// same architecture is trained locally and the examples transfer to the
// loaded victim.
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"repro/internal/approx"
	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/encoding"
	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("axsnn-attack: ")

	model := flag.String("model", "model.bin", "victim model path")
	arch := flag.String("arch", "dense", "architecture the model was trained with")
	atkName := flag.String("attack", "pgd", "attack: pgd, bim or fgsm")
	epsList := flag.String("eps", "0.1,0.5,1.0", "comma-separated perturbation budgets")
	level := flag.Float64("level", 0, "approximation level (0 = accurate)")
	precision := flag.String("precision", "fp32", "precision scale: fp32, fp16, int8")
	testN := flag.Int("test", 120, "test samples")
	trainN := flag.Int("train", 600, "surrogate training samples")
	size := flag.Int("size", 14, "image height/width")
	seed := flag.Uint64("seed", 1, "seed")
	workers := flag.Int("workers", 0, "worker budget for attack crafting and evaluation (0 = all cores; results are the same at every value)")
	flag.Parse()
	tensor.SetWorkers(*workers)

	scfg := dataset.DefaultSynthConfig()
	scfg.H, scfg.W = *size, *size
	test := dataset.GenerateSynth(*testN, scfg, *seed+2)
	train := dataset.GenerateSynth(*trainN, scfg, *seed)

	// Rebuild the architecture, then load the weights (the file stores
	// config + parameters; see snn.Save).
	cfg := snn.DefaultConfig(0.25, 8)
	build := func(c snn.Config, r *rng.RNG) *snn.Network {
		if *arch == "conv" {
			return snn.MNISTNet(c, 1, *size, *size, true, r)
		}
		return snn.DenseNet(c, (*size)*(*size), 64, 10, r)
	}
	victim := build(cfg, rng.New(*seed))
	if err := victim.LoadFile(*model); err != nil {
		log.Fatalf("loading %s: %v (train one with axsnn-train)", *model, err)
	}

	scale, err := quant.ParseScale(*precision)
	if err != nil {
		log.Fatal(err)
	}
	if *level > 0 || scale != quant.FP32 {
		calib := make([][]*tensor.Tensor, 0, 8)
		r := rng.New(*seed + 3)
		for i := 0; i < 8 && i < test.Len(); i++ {
			calib = append(calib, encoding.Rate{}.Encode(test.Samples[i].Image, victim.Cfg.Steps, r))
		}
		var rep approx.Report
		victim, rep = approx.Approximate(victim, approx.Params{Level: *level, Scale: scale}, calib)
		log.Printf("approximated: %s", strings.ReplaceAll(rep.String(), "\n", "; "))
	}

	// Surrogate for the transfer attack.
	sur := build(victim.Cfg, rng.New(*seed+10))
	snn.Train(sur, train, snn.TrainOptions{
		Epochs: 4, BatchSize: 16, Optimizer: snn.NewAdam(2e-3),
		Encoder: encoding.Rate{}, Seed: *seed + 11,
	})

	clean := snn.Accuracy(victim, test, encoding.Rate{}, *seed+4)
	fmt.Printf("clean accuracy: %.1f%%\n", 100*clean)

	for _, es := range strings.Split(*epsList, ",") {
		eps, err := strconv.ParseFloat(strings.TrimSpace(es), 64)
		if err != nil {
			log.Fatalf("bad eps %q: %v", es, err)
		}
		var atk *attack.Gradient
		switch *atkName {
		case "pgd":
			atk = attack.PGD(eps)
		case "bim":
			atk = attack.BIM(eps)
		case "fgsm":
			atk = attack.FGSM(eps)
		default:
			log.Fatalf("unknown attack %q", *atkName)
		}
		atk.Encoder = encoding.Rate{}
		adv := atk.PerturbSet(sur, test, rng.New(*seed+5))
		acc := snn.Accuracy(victim, adv, encoding.Rate{}, *seed+4)
		fmt.Printf("%s eps=%.2f: accuracy %.1f%% (robustness loss %.1f%%)\n",
			strings.ToUpper(*atkName), eps, 100*acc, 100*(clean-acc))
	}
}
