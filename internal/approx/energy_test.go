package approx

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/snn"
	"repro/internal/tensor"
)

// fullyPrune installs an all-zero mask on every weighted layer.
func fullyPrune(net *snn.Network) {
	for _, l := range net.Layers {
		switch v := l.(type) {
		case *snn.Conv2D:
			v.Mask = tensor.New(v.W.Shape...)
		case *snn.Dense:
			v.Mask = tensor.New(v.W.Shape...)
		}
	}
}

// Savings used to return +Inf for a fully pruned network, which
// encoding/json rejects outright — any metrics payload carrying the
// value failed to marshal. It now clamps to PossibleSOPs and flags the
// case via FullyPruned.
func TestSavingsFullyPrunedMarshals(t *testing.T) {
	net, calib := fixture(31)
	fullyPrune(net)
	e := MeasureEnergy(net, calib)
	if e.SOPs != 0 {
		t.Fatalf("fully pruned network performed %v SOPs", e.SOPs)
	}
	if !e.FullyPruned() {
		t.Fatal("FullyPruned must report the clamp case")
	}
	s := e.Savings()
	if math.IsInf(s, 0) || math.IsNaN(s) {
		t.Fatalf("Savings must stay finite, got %v", s)
	}
	if s != e.PossibleSOPs {
		t.Fatalf("clamped Savings = %v, want PossibleSOPs %v", s, e.PossibleSOPs)
	}
	payload := struct {
		Report  EnergyReport `json:"report"`
		Savings float64      `json:"savings"`
	}{e, s}
	if _, err := json.Marshal(payload); err != nil {
		t.Fatalf("marshaling the energy metrics: %v", err)
	}
}

func TestSavingsEdgeCases(t *testing.T) {
	if s := (EnergyReport{}).Savings(); s != 1 {
		t.Fatalf("zero-activity report Savings = %v, want 1", s)
	}
	if (EnergyReport{}).FullyPruned() {
		t.Fatal("zero-activity report is not the fully-pruned case")
	}
	e := EnergyReport{SOPs: 50, PossibleSOPs: 200}
	if s := e.Savings(); s != 4 {
		t.Fatalf("Savings = %v, want 4", s)
	}
	if e.FullyPruned() {
		t.Fatal("working network is not fully pruned")
	}
}

// The batch accounting must agree with MeasureEnergy when driven by the
// same activity profile: Calibrate runs per-sample, so a batch
// multiplier of 1 over its statistics reproduces the report exactly.
func TestEnergyModelMatchesMeasure(t *testing.T) {
	net, calib := fixture(33)
	want := MeasureEnergy(net, calib)

	m := NewEnergyModel(net)
	snn.Calibrate(net, calib)
	inputSum := 0.0
	for _, frames := range calib {
		for st := 0; st < net.Cfg.Steps; st++ {
			f := frames[min(st, len(frames)-1)]
			inputSum += f.Sum()
		}
	}
	sops, possible := m.BatchSOPs(net, inputSum, 1)
	if sops != want.SOPs || possible != want.PossibleSOPs {
		t.Fatalf("BatchSOPs = (%v, %v), MeasureEnergy = (%v, %v)",
			sops, possible, want.SOPs, want.PossibleSOPs)
	}
	if want.SOPs <= 0 || want.PossibleSOPs < want.SOPs {
		t.Fatalf("degenerate report: %+v", want)
	}
}

// BatchSOPs must not allocate: it runs on the serve tier's per-batch
// classify path.
func TestBatchSOPsZeroAlloc(t *testing.T) {
	net, calib := fixture(35)
	m := NewEnergyModel(net)
	snn.Calibrate(net, calib)
	allocs := testing.AllocsPerRun(20, func() {
		m.BatchSOPs(net, 123, 4)
	})
	if allocs != 0 {
		t.Fatalf("BatchSOPs allocates %v/op, want 0", allocs)
	}
}
