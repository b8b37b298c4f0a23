package tensor_test

import (
	"fmt"
	"testing"

	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// BenchmarkConvForward measures one batch-4 inference convolution at
// the served DVSNet-lite's two conv shapes, at the input density the
// traced closed-fp32 bench measures and at 4× that, with two kernels:
// kernel=scatter is the event-driven tensor.ConvScatterInto the FP32
// arena runs, on the tap-reversed panel tensor.ConvScatterWeightsInto
// builds once per pass, and kernel=int8 is the INT8 tier's
// tensor.ConvScatterInt8Into over per-channel codes. The bias epilogue
// is left out of both. Inputs take the AvgPool levels {¼, ½, ¾, 1} that
// feed these layers. Kernels run serially, as they do inside a serving
// session. ns/SOP divides by the nonzero inputs times the live fan-out,
// as the bench trace counts SOPs, so a kernel whose time follows the
// spikes keeps it flat across densities.
func BenchmarkConvForward(b *testing.B) {
	tensor.SetWorkers(1)
	defer tensor.SetWorkers(0)
	const batch = 4
	shapes := []struct {
		name    string
		g       tensor.Conv2DGeom
		outC    int
		density float64 // traced conv input density
	}{
		{"conv1", tensor.Conv2DGeom{InC: 2, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}, 8, 0.086},
		{"conv2", tensor.Conv2DGeom{InC: 8, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 16, 0.035},
	}
	for _, sh := range shapes {
		g := sh.g
		n := g.OutH() * g.OutW()
		ckk := g.InC * g.KH * g.KW
		chw := g.InC * g.InH * g.InW
		r := rng.New(9)
		w := tensor.New(sh.outC, ckk)
		for i := range w.Data {
			w.Data[i] = r.NormFloat32()
		}
		wR := tensor.New(ckk, sh.outC)
		tensor.ConvScatterWeightsInto(wR, w, g)
		panel, err := quant.QuantizePerChannel(w, sh.outC)
		if err != nil {
			b.Fatal(err)
		}
		codesT := panel.TransposedCodes()
		fieldStep, acc32 := make([]float32, n), make([]int32, n*sh.outC)
		fanOut := float64(w.Len()*n) / float64(chw)
		for _, density := range []float64{sh.density, 4 * sh.density} {
			samples := make([]*tensor.Tensor, batch)
			nnz := 0
			for i := range samples {
				samples[i] = tensor.New(g.InC, g.InH, g.InW)
				for j := range samples[i].Data {
					if r.Float64() < density {
						samples[i].Data[j] = float32(1+r.Intn(4)) / 4
						nnz++
					}
				}
			}
			sops := float64(nnz) * fanOut
			acc := tensor.New(batch*n, sh.outC)
			kernels := []struct {
				name string
				run  func()
			}{
				{"scatter", func() {
					for i, x := range samples {
						tensor.ConvScatterInto(acc.Data[i*n*sh.outC:(i+1)*n*sh.outC], x, wR.Data, sh.outC, g)
					}
				}},
				{"int8", func() {
					for i, x := range samples {
						tensor.ConvScatterInt8Into(acc.Data[i*n*sh.outC:(i+1)*n*sh.outC], x, codesT, panel.Steps, sh.outC, g, fieldStep, acc32)
					}
				}},
			}
			for _, k := range kernels {
				b.Run(fmt.Sprintf("%s/density=%.3f/kernel=%s", sh.name, density, k.name), func(b *testing.B) {
					k.run()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						k.run()
					}
					b.StopTimer()
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*sops), "ns/SOP")
				})
			}
		}
	}
}

// BenchmarkConvWeightGrad measures one training step's conv weight
// gradient as the training arena runs it: each sample's nonzero inputs
// scatter the channel-last output gradient into a zeroed tap-reversed
// panel (tensor.ConvWeightGradScatterAcc), which
// tensor.AddConvScatterWeights folds into dW. The shapes are
// BenchmarkConvForward's two DVSNet-lite convs at batch 4, at the traced
// density and 4× it, and offline-pgd's conv1 (MNISTNet lite, 1→6 at
// 16×16, batch 16) on dense analog input, as the Direct encoder
// presents an image. Gradients are dense, and the channel-last layout
// copy of the output gradient is left out. ns/SOP divides by the
// nonzero inputs times the live fan-out, as in BenchmarkConvForward.
func BenchmarkConvWeightGrad(b *testing.B) {
	tensor.SetWorkers(1)
	defer tensor.SetWorkers(0)
	dvs1 := tensor.Conv2DGeom{InC: 2, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	dvs2 := tensor.Conv2DGeom{InC: 8, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	mnist1 := tensor.Conv2DGeom{InC: 1, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	shapes := []struct {
		name        string
		g           tensor.Conv2DGeom
		outC, batch int
		densities   []float64
		analog      bool // uniform (0, 1) values rather than AvgPool levels
	}{
		{"conv1", dvs1, 8, 4, []float64{0.086, 4 * 0.086}, false},
		{"conv2", dvs2, 16, 4, []float64{0.035, 4 * 0.035}, false},
		{"mnist-conv1", mnist1, 6, 16, []float64{1}, true},
	}
	for _, sh := range shapes {
		g, batch := sh.g, sh.batch
		n := g.OutH() * g.OutW()
		ckk := g.InC * g.KH * g.KW
		chw := g.InC * g.InH * g.InW
		r := rng.New(9)
		gT := tensor.New(batch*n, sh.outC)
		for i := range gT.Data {
			gT.Data[i] = r.NormFloat32()
		}
		dW, dR := tensor.New(sh.outC, ckk), tensor.New(ckk, sh.outC)
		fanOut := float64(sh.outC*ckk*n) / float64(chw)
		for _, density := range sh.densities {
			samples := make([]*tensor.Tensor, batch)
			nnz := 0
			for i := range samples {
				samples[i] = tensor.New(g.InC, g.InH, g.InW)
				for j := range samples[i].Data {
					if r.Float64() >= density {
						continue
					}
					if sh.analog {
						samples[i].Data[j] = 1 - r.Float32()
					} else {
						samples[i].Data[j] = float32(1+r.Intn(4)) / 4
					}
					nnz++
				}
			}
			sops := float64(nnz) * fanOut
			run := func() {
				dR.Zero()
				for i, x := range samples {
					tensor.ConvWeightGradScatterAcc(dR.Data, x, gT.Data[i*n*sh.outC:(i+1)*n*sh.outC], sh.outC, g)
				}
				tensor.AddConvScatterWeights(dW, dR, g)
			}
			b.Run(fmt.Sprintf("%s/density=%.3f/kernel=scatter", sh.name, density), func(b *testing.B) {
				run()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*sops), "ns/SOP")
			})
		}
	}
}
