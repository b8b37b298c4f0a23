package exp

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/defense"
	"repro/internal/dvs"
	"repro/internal/encoding"
	"repro/internal/eval"
	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/snn"
)

// The ablations extend the paper's evaluation along design choices it
// fixes: the spike-encoding scheme (the paper fixes rate coding; TTFS
// is the alternative its ref [5] studies) and AQF's filter constants
// (the paper fixes s=2, T1=5, T2=50).

// AblationEncoding compares clean and adversarial accuracy of SNNs
// trained with rate, direct and time-to-first-spike coding at the Fig. 1
// structural point.
func AblationEncoding(o Options) Result {
	p := presetFor(o.Scale)
	train, test := mnistData(o, p)

	tbl := eval.Table{
		Title:   "Ablation — spike encoding vs robustness (PGD ε=0.5, level 0.01)",
		Headers: []string{"Encoding", "Clean[%]", "Adv[%]", "AxSNN Adv[%]"},
	}
	metrics := map[string]float64{}
	for _, enc := range []encoding.Encoder{encoding.Rate{}, encoding.Direct{}, encoding.TTFS{}} {
		d := designerWith(o, p, train, test, enc)
		acc := d.TrainAccurate(0.25, p.scaledSteps(32))
		sur := d.TrainSurrogate(0.25, p.scaledSteps(32))
		clean := d.EvaluateSet(acc, test)
		atk := tuneAttack(attack.PGD(0.5), 0.5, p.attackIters)
		atk.Encoder = enc
		adv := d.CraftAdversarial(sur, atk, o.Seed+31)
		advAcc := d.EvaluateSet(acc, adv)
		ax, _ := d.Approximate(acc, 0.01, quant.FP32)
		axAdv := d.EvaluateSet(ax, adv)
		tbl.Rows = append(tbl.Rows, []string{
			enc.Name(),
			fmt.Sprintf("%.1f", 100*clean),
			fmt.Sprintf("%.1f", 100*advAcc),
			fmt.Sprintf("%.1f", 100*axAdv),
		})
		metrics[enc.Name()+"_clean"] = clean
		metrics[enc.Name()+"_adv"] = advAcc
	}
	return Result{
		ID: "ablation-encoding", Title: "Spike-encoding ablation",
		Text:    eval.FormatTable(tbl),
		Metrics: metrics,
		Notes:   "Extension of the paper (which fixes rate coding); its ref [5] studies TTFS robustness.",
	}
}

// AblationAQF sweeps the AQF support threshold and temporal window,
// reporting signal retention on clean streams and recovery under the
// sparse attack.
func AblationAQF(o Options) Result {
	f := runGestureFixture(o)

	tbl := eval.Table{
		Title:   "Ablation — AQF constants (level 0.1, qt=15 ms, Sparse attack)",
		Headers: []string{"Support", "T2[ms]", "Clean w/ AQF[%]", "Sparse w/ AQF[%]"},
	}
	metrics := map[string]float64{"baseline": f.cleanAcc}
	ax, _ := f.d.Approximate(f.acc, 0.1, quant.FP32)
	for _, support := range []int{1, 2, 4} {
		for _, t2 := range []float64{25, 50, 100} {
			p := defense.AQFParams{S: 2, T1: 5, T2: t2, Qt: 0.015, Support: support}
			clean := f.d.Evaluate(ax, f.test, &p)
			adv := f.d.Evaluate(ax, f.advSparse, &p)
			tbl.Rows = append(tbl.Rows, []string{
				fmt.Sprintf("%d", support),
				fmt.Sprintf("%.0f", t2),
				fmt.Sprintf("%.1f", 100*clean),
				fmt.Sprintf("%.1f", 100*adv),
			})
			metrics[fmt.Sprintf("s%d_t%g_clean", support, t2)] = clean
			metrics[fmt.Sprintf("s%d_t%g_adv", support, t2)] = adv
		}
	}
	return Result{
		ID: "ablation-aqf", Title: "AQF constant sensitivity",
		Text:    eval.FormatTable(tbl),
		Metrics: metrics,
		Notes:   "The paper fixes (s,T1,T2)=(2,5,50); this sweep shows the retention/recovery trade-off.",
	}
}

// AblationUAP measures the universal-adversarial-perturbation threat:
// one input-agnostic perturbation, crafted on the surrogate, applied to
// the whole test set, against the AccSNN and AxSNNs.
func AblationUAP(o Options) Result {
	p := presetFor(o.Scale)
	train, test := mnistData(o, p)
	d := designerFor(o, p, train, test)
	acc := d.TrainAccurate(0.25, p.scaledSteps(32))
	sur := d.TrainSurrogate(0.25, p.scaledSteps(32))

	tbl := eval.Table{
		Title:   "Ablation — universal adversarial perturbation (crafted on surrogate)",
		Headers: []string{"eps", "AccSNN[%]", "AxSNN(0.01)[%]", "AxSNN(0.1)[%]"},
	}
	metrics := map[string]float64{"clean": d.EvaluateSet(acc, test)}
	ax1, _ := d.Approximate(acc, 0.01, quant.FP32)
	ax2, _ := d.Approximate(acc, 0.1, quant.FP32)
	for _, eps := range []float64{0.1, 0.3, 0.5} {
		u := attack.NewUniversal(eps)
		u.Encoder = encoding.Rate{}
		delta := u.Compute(sur, train.Subset(60), rngFor(o, 41))
		adv := u.PerturbSet(test, delta)
		a0 := d.EvaluateSet(acc, adv)
		a1 := d.EvaluateSet(ax1, adv)
		a2 := d.EvaluateSet(ax2, adv)
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%.1f", eps),
			fmt.Sprintf("%.1f", 100*a0),
			fmt.Sprintf("%.1f", 100*a1),
			fmt.Sprintf("%.1f", 100*a2),
		})
		metrics[fmt.Sprintf("accsnn_eps%g", eps)] = a0
		metrics[fmt.Sprintf("ax0.01_eps%g", eps)] = a1
		metrics[fmt.Sprintf("ax0.1_eps%g", eps)] = a2
	}
	return Result{
		ID: "ablation-uap", Title: "Universal perturbation threat",
		Text:    eval.FormatTable(tbl),
		Metrics: metrics,
		Notes:   "Extension: input-agnostic perturbations are the deployable variant of the paper's per-input attacks.",
	}
}

// rngFor derives a child RNG for an experiment sub-step.
func rngFor(o Options, salt uint64) *rng.RNG { return rng.New(o.Seed ^ salt<<32) }

// evalFiltered evaluates a network on a BAF-filtered copy of the set.
func evalFiltered(f *gestureFixture, net *snn.Network, set *dvs.Set, baf *defense.BackgroundActivityFilter) float64 {
	return f.d.Evaluate(net, baf.FilterSet(set), nil)
}

// AblationFilters compares AQF against the classic background-activity
// filter (and against no defense) under the three neuromorphic attacks,
// including the Corner attack from DVS-Attacks that the paper does not
// evaluate.
func AblationFilters(o Options) Result {
	f := runGestureFixture(o)
	ax, _ := f.d.Approximate(f.acc, 0.01, quant.FP32)
	advCorner := f.advCorner

	aqf := defense.DefaultAQFParams(0.015)
	baf := defense.NewBackgroundActivityFilter()

	tbl := eval.Table{
		Title:   "Ablation — event filters under neuromorphic attacks (level 0.01)",
		Headers: []string{"Attack", "Undefended[%]", "BAF[%]", "AQF[%]"},
	}
	metrics := map[string]float64{"clean": f.d.Evaluate(ax, f.test, nil)}
	for _, c := range []struct {
		name string
		adv  func() float64
		baf  func() float64
		aqf  func() float64
	}{
		{"Sparse",
			func() float64 { return f.d.Evaluate(ax, f.advSparse, nil) },
			func() float64 { return evalFiltered(f, ax, f.advSparse, baf) },
			func() float64 { return f.d.Evaluate(ax, f.advSparse, &aqf) }},
		{"Frame",
			func() float64 { return f.d.Evaluate(ax, f.advFrame, nil) },
			func() float64 { return evalFiltered(f, ax, f.advFrame, baf) },
			func() float64 { return f.d.Evaluate(ax, f.advFrame, &aqf) }},
		{"Corner",
			func() float64 { return f.d.Evaluate(ax, advCorner, nil) },
			func() float64 { return evalFiltered(f, ax, advCorner, baf) },
			func() float64 { return f.d.Evaluate(ax, advCorner, &aqf) }},
	} {
		u, bv, av := c.adv(), c.baf(), c.aqf()
		tbl.Rows = append(tbl.Rows, []string{
			c.name,
			fmt.Sprintf("%.1f", 100*u),
			fmt.Sprintf("%.1f", 100*bv),
			fmt.Sprintf("%.1f", 100*av),
		})
		metrics[c.name+"_none"] = u
		metrics[c.name+"_baf"] = bv
		metrics[c.name+"_aqf"] = av
	}
	return Result{
		ID: "ablation-filters", Title: "AQF vs background-activity filter",
		Text:    eval.FormatTable(tbl),
		Metrics: metrics,
		Notes:   "Extension: BAF is the pre-AQF denoising baseline (Delbruck); Corner is DVS-Attacks' third attack.",
	}
}
