package exp

import (
	"fmt"

	"repro/internal/approx"
	"repro/internal/eval"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// PrecisionTiers pins the serving-tier contract on the gesture fixture:
// the quantized INT8 inference path (per-channel int8 weight panels
// with int32 accumulation — snn.TierINT8, what a serve session requests
// in its hello) must track the exact FP32 classifier within a small
// accuracy delta, and the energy model prices the synaptic work behind
// the per-session SOP accounting the serve protocol reports. The delta
// bound itself is pinned by the test suite.
func PrecisionTiers(o Options) Result {
	f := runGestureFixture(o)

	// INT8 runs on a weight-sharing clone: the panels quantize the
	// masked effective weights cold, the clone's tier flips, and the
	// fixture's FP32 network stays untouched for the other experiments.
	q := f.acc.CloneArchitecture()
	if err := q.BuildInt8Panels(); err != nil {
		panic(fmt.Sprintf("exp: building int8 panels: %v", err))
	}
	if err := q.SetTier(snn.TierINT8); err != nil {
		panic(fmt.Sprintf("exp: selecting the int8 tier: %v", err))
	}
	int8Acc := f.d.Evaluate(q, f.test, nil)
	delta := f.cleanAcc - int8Acc

	// Price the synaptic work the way the serve tier does. SOP counts
	// depend on geometry, masks and spiking activity — not on arithmetic
	// precision — so one measurement covers both tiers.
	workload := make([][]*tensor.Tensor, 0, 8)
	for i := range f.test.Samples {
		if i == 8 {
			break
		}
		workload = append(workload, f.test.Samples[i].Stream.Voxelize(f.acc.Cfg.Steps))
	}
	e := approx.MeasureEnergy(f.acc, workload)
	perSample := 0.0
	if e.Samples > 0 {
		perSample = e.SOPs / float64(e.Samples)
	}

	tbl := eval.Table{
		Title:   "Precision tiers — exact FP32 vs quantized INT8 (DVS128 Gesture)",
		Headers: []string{"Tier", "Clean acc[%]", "SOPs/sample", "Energy/sample [J]"},
	}
	for _, row := range []struct {
		tier string
		acc  float64
	}{{snn.TierFP32.String(), f.cleanAcc}, {snn.TierINT8.String(), int8Acc}} {
		tbl.Rows = append(tbl.Rows, []string{
			row.tier,
			fmt.Sprintf("%.1f", 100*row.acc),
			fmt.Sprintf("%.4g", perSample),
			fmt.Sprintf("%.3g", perSample*e.EnergyPerSOpJ),
		})
	}
	return Result{
		ID: "precision-tiers", Title: "Quantized INT8 serving tier vs exact FP32",
		Text: eval.FormatTable(tbl),
		Metrics: map[string]float64{
			"fp32_acc":            f.cleanAcc,
			"int8_acc":            int8Acc,
			"delta":               delta,
			"sops_per_sample":     perSample,
			"energy_per_sample_j": perSample * e.EnergyPerSOpJ,
		},
		Notes: "Weight quantization is per output channel, 8-bit symmetric, int32 accumulation; activations stay FP32. SOP counts are precision-independent — the same accounting backs the serve tier's result/done frames.",
	}
}
