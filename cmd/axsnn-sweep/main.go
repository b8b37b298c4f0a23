// Command axsnn-sweep runs Algorithm 1 (precision-scaling robustness
// search) over a configurable structural grid and prints every candidate
// plus the accepted configuration.
//
// Usage:
//
//	axsnn-sweep [-vth 0.25,0.75] [-steps 8,12] [-levels 0.009,0.01,0.011]
//	            [-attack pgd] [-eps 1.0] [-q 0.5] [-scale small] [-seed N]
//	            [-workers N]
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/encoding"
	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("axsnn-sweep: ")

	vthFlag := flag.String("vth", "0.25,0.75,1.25", "threshold voltages")
	stepsFlag := flag.String("steps", "8,12", "time steps")
	levelsFlag := flag.String("levels", "0.009,0.01,0.011,0.0125", "approximation levels")
	atkName := flag.String("attack", "pgd", "attack: pgd or bim")
	eps := flag.Float64("eps", 1.0, "perturbation budget")
	q := flag.Float64("q", 0.5, "quality constraint Q (accuracy in [0,1])")
	trainN := flag.Int("train", 600, "training samples")
	testN := flag.Int("test", 120, "test samples")
	size := flag.Int("size", 14, "image height/width")
	seed := flag.Uint64("seed", 7, "seed")
	workers := flag.Int("workers", 0, "worker budget for parallel grid cells (0 = all cores; results are the same at every value)")
	flag.Parse()

	// Like axsnn-attack/-gesture, the budget bounds the sample-level
	// fan-out (here, grid cells); kernels are serial.
	tensor.SetWorkers(*workers)

	vths64, err := parseFloats(*vthFlag)
	if err != nil {
		log.Fatal(err)
	}
	vths := make([]float32, len(vths64))
	for i, v := range vths64 {
		vths[i] = float32(v)
	}
	steps64, err := parseFloats(*stepsFlag)
	if err != nil {
		log.Fatal(err)
	}
	steps := make([]int, len(steps64))
	for i, v := range steps64 {
		steps[i] = int(v)
	}
	levels, err := parseFloats(*levelsFlag)
	if err != nil {
		log.Fatal(err)
	}

	mk := attack.PGD
	if *atkName == "bim" {
		mk = attack.BIM
	}

	scfg := dataset.DefaultSynthConfig()
	scfg.H, scfg.W = *size, *size
	res := defense.PrecisionScalingSearch(defense.SearchConfig{
		Space: defense.SearchSpace{
			VThs: vths, Steps: steps,
			Scales: quant.Scales, Levels: levels,
		},
		AttackFor: func(e float64) *attack.Gradient {
			a := mk(e)
			a.Encoder = encoding.Rate{}
			a.Alpha = e / (5 * float64(a.Steps))
			return a
		},
		Eps:   *eps,
		Q:     *q,
		Train: dataset.GenerateSynth(*trainN, scfg, *seed),
		Test:  dataset.GenerateSynth(*testN, scfg, *seed+1),
		BuildNet: func(c snn.Config, r *rng.RNG) *snn.Network {
			return snn.DenseNet(c, (*size)*(*size), 64, 10, r)
		},
		TrainOpts: func() snn.TrainOptions {
			return snn.TrainOptions{Epochs: 4, BatchSize: 16, Optimizer: snn.NewAdam(2e-3)}
		},
		Encoder: encoding.Rate{},
		CalibN:  12,
		Seed:    *seed,
		Workers: *workers,
	})

	fmt.Printf("%-28s %-10s %-8s %s\n", "candidate", "clean", "adv", "accepted")
	for _, c := range res.All {
		fmt.Printf("%-28s %8.1f%% %6.1f%% %v\n", c.String(), 100*c.CleanAcc, 100*c.AdvAcc, c.Accepted)
	}
	if res.Best != nil {
		fmt.Printf("\nbest: %s (robustness %.1f%%)\n", res.Best.String(), 100*res.Best.Robustness)
	} else {
		fmt.Println("\nno candidate passed the quality gate")
	}
}
