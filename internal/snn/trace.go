package snn

import (
	"fmt"
	"strings"

	"repro/internal/tensor"
)

// ActivityTrace captures per-LIF-layer spiking statistics from one or
// more forward passes, for debugging, energy analysis and the raster
// views in the examples.
type ActivityTrace struct {
	// Layers holds one entry per LIF layer, in network order.
	Layers []LayerActivity
	// Steps is the total forward steps traced.
	Steps int
}

// LayerActivity is one LIF layer's activity profile.
type LayerActivity struct {
	Index         int     // position in the network's layer list
	Units         int     // neurons
	SpikesPerStep float64 // mean spikes per time step
	FiringRate    float64 // mean spikes per neuron per step
	MeanMembrane  float64 // mean pre-reset membrane potential
}

// Trace runs the network over the workload (inference mode) and returns
// its spiking activity profile. Statistics are reset first and left
// populated afterwards for further inspection.
func Trace(n *Network, workload [][]*tensor.Tensor) ActivityTrace {
	Calibrate(n, workload)
	tr := ActivityTrace{}
	for i, l := range n.Layers {
		lif, ok := l.(*LIF)
		if !ok {
			continue
		}
		tr.Steps = lif.StatSteps
		tr.Layers = append(tr.Layers, LayerActivity{
			Index:         i,
			Units:         lif.StatUnits,
			SpikesPerStep: lif.MeanSpikesPerStep(),
			FiringRate:    lif.MeanSpikesPerStep() / float64(max(1, lif.StatUnits)),
			MeanMembrane:  lif.MeanMembrane(),
		})
	}
	return tr
}

// String renders the trace as an aligned table.
func (t ActivityTrace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-8s %-14s %-12s %s\n", "layer", "units", "spikes/step", "rate", "mean Vm")
	for _, l := range t.Layers {
		fmt.Fprintf(&b, "%-6d %-8d %-14.2f %-12.4f %.4f\n",
			l.Index, l.Units, l.SpikesPerStep, l.FiringRate, l.MeanMembrane)
	}
	return b.String()
}

// TotalSpikesPerStep sums spiking activity across layers.
func (t ActivityTrace) TotalSpikesPerStep() float64 {
	s := 0.0
	for _, l := range t.Layers {
		s += l.SpikesPerStep
	}
	return s
}
