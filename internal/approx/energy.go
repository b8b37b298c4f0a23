package approx

import (
	"repro/internal/snn"
	"repro/internal/tensor"
)

// Energy model (Sen et al., "Approximate computing for spiking neural
// networks", DATE 2017 — the paper's [2]): SNN inference energy is
// dominated by synaptic operations (SOPs), one per input spike per live
// synapse. Pruning synapses removes their SOPs, which is where the
// "up to 4X" energy saving comes from.

// EnergyReport summarizes the synaptic work of one network on a workload.
type EnergyReport struct {
	SOPs          float64 // synaptic operations performed
	PossibleSOPs  float64 // SOPs an unpruned network would have performed
	Samples       int
	EnergyPerSOpJ float64 // assumed energy per SOP (joules)
}

// TotalEnergyJ returns the modelled energy in joules.
func (e EnergyReport) TotalEnergyJ() float64 { return e.SOPs * e.EnergyPerSOpJ }

// Savings returns PossibleSOPs/SOPs, the energy-efficiency factor versus
// the accurate network (1.0 = no saving). A fully pruned network that
// performs no synaptic work at all clamps to PossibleSOPs — the factor
// as if a single SOP remained — so the value stays finite: the old +Inf
// broke encoding/json, which rejects infinities. FullyPruned reports
// whether the clamp fired.
func (e EnergyReport) Savings() float64 {
	if e.SOPs == 0 {
		if e.PossibleSOPs == 0 {
			return 1
		}
		return e.PossibleSOPs
	}
	return e.PossibleSOPs / e.SOPs
}

// FullyPruned reports whether the network performed no synaptic work at
// all while an unpruned one would have — the case Savings clamps.
func (e EnergyReport) FullyPruned() bool { return e.SOPs == 0 && e.PossibleSOPs > 0 }

// defaultEnergyPerSOp is a representative 45 nm digital synaptic-op
// energy (≈ one 32-bit MAC), used only to express results in joules.
const defaultEnergyPerSOp = 3.2e-12

// energyLayer is one weighted layer's synaptic profile: live and total
// synapses reached per unit of input activity.
type energyLayer struct {
	fanOut  float64 // live synapses per input unit
	fullFan float64 // total synapses per input unit
}

// EnergyModel is the per-layer synaptic profile of a network, built
// once (cold) so SOP accounting can run per inference batch without
// re-scanning the prune masks. The profile depends only on geometry and
// masks, which weight-sharing clones share — one model serves every
// clone of the network it was built from. Rebuild after re-pruning or
// a hot swap.
type EnergyModel struct {
	layers []energyLayer
	// EnergyPerSOpJ converts SOPs to joules (defaultEnergyPerSOp).
	EnergyPerSOpJ float64
}

// NewEnergyModel scans the network's weighted layers and masks into a
// reusable SOP-accounting model.
func NewEnergyModel(net *snn.Network) *EnergyModel {
	m := &EnergyModel{EnergyPerSOpJ: defaultEnergyPerSOp}
	for _, l := range net.Layers {
		switch v := l.(type) {
		case *snn.Conv2D:
			total := v.W.Len()
			live := total
			if v.Mask != nil {
				live = 0
				for _, mk := range v.Mask.Data {
					if mk != 0 {
						live++
					}
				}
			}
			inLen := v.Geom.InC * v.Geom.InH * v.Geom.InW
			// Each input unit participates in ~K²·OutC/stride² taps; use
			// exact total synapse count × output positions / input size.
			positions := float64(v.Geom.OutH() * v.Geom.OutW())
			m.layers = append(m.layers, energyLayer{
				fanOut:  float64(live) * positions / float64(inLen),
				fullFan: float64(total) * positions / float64(inLen),
			})
		case *snn.Dense:
			total := v.W.Len()
			live := total
			if v.Mask != nil {
				live = 0
				for _, mk := range v.Mask.Data {
					if mk != 0 {
						live++
					}
				}
			}
			m.layers = append(m.layers, energyLayer{
				fanOut:  float64(live) / float64(v.In),
				fullFan: float64(total) / float64(v.In),
			})
		}
	}
	return m
}

// BatchSOPs attributes the inference work net just performed: the
// caller resets spike statistics (net.ResetStats) before the pass and
// supplies the total input activity (sum of input frame values over the
// whole batch and all steps) plus the batch size. Each weighted layer's
// input activity is the raw input for the first and the preceding LIF's
// accumulated spikes for the rest (LIF statistics are per-sample
// averages, hence the batch multiplier). Returns performed and
// unpruned-baseline SOP counts. Allocation-free: safe on the serve
// tier's per-batch classify path.
func (m *EnergyModel) BatchSOPs(net *snn.Network, inputSum float64, batch int) (sops, possible float64) {
	if batch <= 0 {
		batch = 1
	}
	wi := 0
	var prevLIF *snn.LIF
	for _, l := range net.Layers {
		switch v := l.(type) {
		case *snn.Conv2D, *snn.Dense:
			if wi >= len(m.layers) {
				return sops, possible // model built from a different stack
			}
			sp := inputSum
			if prevLIF != nil {
				sp = prevLIF.StatSpikes * float64(batch)
			}
			sops += sp * m.layers[wi].fanOut
			possible += sp * m.layers[wi].fullFan
			wi++
		case *snn.LIF:
			prevLIF = v
		}
	}
	return sops, possible
}

// MeasureEnergy runs the network over the workload counting SOPs. For
// each weighted layer, every incoming spike costs one SOP per live
// (unpruned) synapse it fans into; the accurate baseline pays fan-out on
// every synapse. Spiking activity is taken from the actual run, so the
// two counts share one activity profile.
func MeasureEnergy(net *snn.Network, workload [][]*tensor.Tensor) EnergyReport {
	rep := EnergyReport{Samples: len(workload), EnergyPerSOpJ: defaultEnergyPerSOp}
	m := NewEnergyModel(net)

	// Instrument a run: Calibrate resets and repopulates LIF statistics,
	// then the model attributes each weighted layer's input activity.
	snn.Calibrate(net, workload)

	// Raw input activity: active input units over the workload.
	inputSum := 0.0
	for _, frames := range workload {
		for t := 0; t < net.Cfg.Steps; t++ {
			f := frames[min(t, len(frames)-1)]
			inputSum += f.Sum()
		}
	}
	// Calibrate runs per-sample (batch 1), so LIF statistics already
	// total the whole workload.
	rep.SOPs, rep.PossibleSOPs = m.BatchSOPs(net, inputSum, 1)
	return rep
}
