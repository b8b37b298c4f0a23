// Command axsnn-gesture runs the neuromorphic pipeline end to end:
// train a gesture classifier on synthetic DVS event streams, attack it
// with the Sparse and Frame attacks, and defend with AQF (Algorithm 2).
//
// Usage:
//
//	axsnn-gesture [-vth 1.0] [-steps 12] [-epochs 8] [-train 66] [-test 33]
//	              [-level 0.1] [-qt 0.015] [-dump dir] [-seed N]
//
// With -dump, the clean, attacked and filtered event streams of the
// first test sample are written as .aedat files for inspection.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/dvs"
	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("axsnn-gesture: ")

	vth := flag.Float64("vth", 1.0, "LIF threshold voltage")
	steps := flag.Int("steps", 12, "voxelization time bins")
	epochs := flag.Int("epochs", 8, "training epochs")
	trainN := flag.Int("train", 66, "training streams")
	testN := flag.Int("test", 33, "test streams")
	level := flag.Float64("level", 0.1, "approximation level for the AxSNN")
	qt := flag.Float64("qt", 0.015, "AQF quantization step (seconds)")
	dump := flag.String("dump", "", "directory to dump example .aedat streams")
	seed := flag.Uint64("seed", 4, "seed")
	workers := flag.Int("workers", 0, "worker budget for attack crafting, AQF filtering and evaluation (0 = all cores; results are the same at every value)")
	flag.Parse()
	tensor.SetWorkers(*workers)

	gcfg := dvs.DefaultGestureConfig()
	gcfg.Duration = 1000
	train := dvs.GenerateGestureSet(*trainN, gcfg, *seed)
	test := dvs.GenerateGestureSet(*testN, gcfg, *seed+1)

	d := core.NewGestureDesigner(core.GestureConfig{
		Arch: func(cfg snn.Config, r *rng.RNG) *snn.Network {
			return snn.DVSNet(cfg, gcfg.H, gcfg.W, dvs.GestureClasses, true, r, rng.New(*seed+2))
		},
		Train: train,
		Test:  test,
		TrainOpts: func() snn.TrainOptions {
			return snn.TrainOptions{Epochs: *epochs, BatchSize: 8, Optimizer: snn.NewAdam(3e-3)}
		},
		Seed: *seed + 3,
	})

	acc := d.TrainAccurate(float32(*vth), *steps)
	ax, rep := d.Approximate(acc, *level, quant.FP32)
	fmt.Printf("clean accuracy: AccSNN %.1f%%, AxSNN(level=%g) %.1f%% (%.0f%% synapses pruned)\n",
		100*d.Evaluate(acc, test, nil), *level, 100*d.Evaluate(ax, test, nil),
		100*rep.TotalPrunedFraction())

	frame := attack.NewFrame()
	frame.Thickness = 4
	aqf := defense.DefaultAQFParams(*qt)
	for _, atk := range []attack.StreamAttack{attack.NewSparse(), frame} {
		adv := d.CraftAdversarial(acc, atk)
		fmt.Printf("%-7s attack: AccSNN %.1f%%  AxSNN %.1f%%  AxSNN+AQF %.1f%%\n",
			atk.Name(),
			100*d.Evaluate(acc, adv, nil),
			100*d.Evaluate(ax, adv, nil),
			100*d.Evaluate(ax, adv, &aqf))

		if *dump != "" {
			if err := os.MkdirAll(*dump, 0o755); err != nil {
				log.Fatal(err)
			}
			s := adv.Samples[0].Stream
			f := defense.AQF(s, aqf)
			for name, st := range map[string]*dvs.Stream{
				"clean":    test.Samples[0].Stream,
				"attacked": s,
				"filtered": f,
			} {
				p := filepath.Join(*dump, fmt.Sprintf("%s_%s.aedat", atk.Name(), name))
				if err := st.SaveAEDAT(p); err != nil {
					log.Fatal(err)
				}
				fmt.Printf("  wrote %s (%d events)\n", p, len(st.Events))
			}
		}
	}
}
