package approx

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/encoding"
	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// fixture builds a trained-ish (random but functional) network and a
// calibration workload.
func fixture(seed uint64) (*snn.Network, [][]*tensor.Tensor) {
	r := rng.New(seed)
	cfg := snn.DefaultConfig(0.5, 4)
	net := snn.MNISTNet(cfg, 1, 12, 12, true, r)
	dcfg := dataset.DefaultSynthConfig()
	dcfg.H, dcfg.W = 12, 12
	set := dataset.GenerateSynth(8, dcfg, seed)
	er := rng.New(seed + 1)
	var calib [][]*tensor.Tensor
	for _, s := range set.Samples {
		calib = append(calib, encoding.Direct{}.Encode(s.Image, cfg.Steps, er))
	}
	return net, calib
}

func TestLevelZeroIsAccurate(t *testing.T) {
	net, _ := fixture(1)
	ax, rep := Approximate(net, Params{Level: 0, Scale: quant.FP32}, nil)
	if rep.TotalPrunedFraction() != 0 {
		t.Fatal("level 0 must prune nothing")
	}
	// Weights identical, behaviour identical.
	for i, p := range net.Params() {
		q := ax.Params()[i]
		for j := range p.Data {
			if p.Data[j] != q.Data[j] {
				t.Fatal("level-0 FP32 approximation changed weights")
			}
		}
	}
}

func TestOriginalNetworkUntouched(t *testing.T) {
	net, calib := fixture(2)
	before := net.Params()[0].Clone()
	_, _ = Approximate(net, Params{Level: 0.1, Scale: quant.INT8}, calib)
	after := net.Params()[0]
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatal("Approximate mutated the source network")
		}
	}
	for _, l := range net.Layers {
		if c, ok := l.(*snn.Conv2D); ok && c.Mask != nil {
			t.Fatal("Approximate installed a mask on the source network")
		}
	}
}

func TestPruningMonotoneInLevel(t *testing.T) {
	net, calib := fixture(3)
	var prev float64 = -1
	for _, level := range []float64{0.001, 0.01, 0.1, 1} {
		_, rep := Approximate(net, Params{Level: level, Scale: quant.FP32}, calib)
		f := rep.TotalPrunedFraction()
		if f < prev {
			t.Fatalf("pruned fraction not monotone: level=%g f=%.3f prev=%.3f", level, f, prev)
		}
		prev = f
	}
	// Level 1 with Eq.1 thresholds must prune the vast majority.
	if prev < 0.9 {
		t.Fatalf("level 1 pruned only %.2f", prev)
	}
}

func TestMaskActuallySilencesSynapses(t *testing.T) {
	net, calib := fixture(4)
	ax, rep := Approximate(net, Params{Level: 0.1, Scale: quant.FP32}, calib)
	if rep.TotalPrunedFraction() == 0 {
		t.Skip("nothing pruned at this seed (unexpected but not a mask bug)")
	}
	// Forward output must differ from the accurate network for a generic
	// input when a significant fraction of synapses is gone.
	img := tensor.New(1, 12, 12)
	r := rng.New(5)
	for i := range img.Data {
		img.Data[i] = r.Float32()
	}
	frames := encoding.Direct{}.Encode(img, net.Cfg.Steps, nil)
	a := net.ForwardSamples([][]*tensor.Tensor{frames}, false)
	b := ax.ForwardSamples([][]*tensor.Tensor{frames}, false)
	same := true
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			same = false
		}
	}
	if same && rep.TotalPrunedFraction() > 0.05 {
		t.Fatal("pruning had no effect on outputs")
	}
}

func TestApproximateRequiresCalib(t *testing.T) {
	net, _ := fixture(6)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without calibration set")
		}
	}()
	Approximate(net, Params{Level: 0.1, Scale: quant.FP32}, nil)
}

func TestReportAccounting(t *testing.T) {
	net, calib := fixture(7)
	_, rep := Approximate(net, Params{Level: 0.05, Scale: quant.FP16}, calib)
	if len(rep.Layers) == 0 {
		t.Fatal("no layer reports")
	}
	for _, l := range rep.Layers {
		if l.Pruned < 0 || l.Pruned > l.Connections {
			t.Fatalf("bad pruned count: %+v", l)
		}
		if l.Skipped < 0 || l.Skipped > l.Neurons {
			t.Fatalf("bad skipped count: %+v", l)
		}
		if l.PrunedFraction() < 0 || l.PrunedFraction() > 1 {
			t.Fatalf("bad pruned fraction: %+v", l)
		}
		if l.Ath < 0 {
			t.Fatalf("negative a_th: %+v", l)
		}
	}
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
}

func TestPrecisionScaleChangesWeights(t *testing.T) {
	net, _ := fixture(8)
	ax16, _ := Approximate(net, Params{Level: 0, Scale: quant.FP16}, nil)
	ax8, _ := Approximate(net, Params{Level: 0, Scale: quant.INT8}, nil)
	w := net.Params()[0]
	w16 := ax16.Params()[0]
	w8 := ax8.Params()[0]
	e16 := quant.MSE(w, w16)
	e8 := quant.MSE(w, w8)
	if e16 <= 0 || e8 <= 0 {
		t.Fatalf("expected quantization error, got fp16=%v int8=%v", e16, e8)
	}
	if e8 < e16 {
		t.Fatalf("int8 error %v below fp16 error %v", e8, e16)
	}
}

func TestEnergySavingsGrowWithPruning(t *testing.T) {
	net, calib := fixture(9)
	accRep := MeasureEnergy(net, calib)
	if accRep.Savings() != 1 {
		t.Fatalf("unpruned network must have savings 1, got %v", accRep.Savings())
	}
	if accRep.SOPs <= 0 {
		t.Fatal("no synaptic operations counted")
	}

	ax, rep := Approximate(net, Params{Level: 0.1, Scale: quant.FP32}, calib)
	axRep := MeasureEnergy(ax, calib)
	if rep.TotalPrunedFraction() > 0.2 && axRep.Savings() < 1.1 {
		t.Fatalf("pruned %.0f%% but savings only %.2fx",
			100*rep.TotalPrunedFraction(), axRep.Savings())
	}
	if axRep.TotalEnergyJ() >= accRep.TotalEnergyJ() {
		t.Fatal("approximate network must consume less modelled energy")
	}
}

func TestLevelsListMatchesPaper(t *testing.T) {
	want := []float64{0, 0.001, 0.01, 0.1, 1}
	if len(Levels) != len(want) {
		t.Fatal("Levels list wrong length")
	}
	for i := range want {
		if Levels[i] != want[i] {
			t.Fatalf("Levels[%d] = %g", i, Levels[i])
		}
	}
}
