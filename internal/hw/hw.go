// Package hw models deployment of (approximate) spiking networks onto
// Loihi-class neuromorphic hardware: a 2-D mesh of cores, each holding a
// bounded number of neurons and synapses, exchanging spikes over a
// network-on-chip.
//
// The paper's motivation is ultra-low-power edge inference (its ref [1]
// runs on Loihi); this package turns the library's activity traces into
// hardware-level consequences: cores occupied, synaptic operations,
// NoC spike traffic, energy and latency per inference — quantifying how
// approximation (pruned synapses, skipped neurons) shrinks the deployed
// footprint.
package hw

import (
	"fmt"
	"math"

	"repro/internal/snn"
)

// CoreSpec describes one neuromorphic core and the chip's energy/timing
// constants. Defaults approximate published Loihi-1 figures.
type CoreSpec struct {
	MaxNeurons  int // compartments per core
	MaxSynapses int // synaptic memory entries per core

	EnergyPerSOpJ  float64 // energy per synaptic operation
	EnergyPerSpike float64 // energy to generate one spike
	EnergyPerHopJ  float64 // energy per spike per mesh hop
	StaticPowerW   float64 // per-core leakage

	SOpTimeNS  float64 // per-synaptic-op processing time within a core
	HopTimeNS  float64 // per-hop NoC latency contribution
	StepTimeNS float64 // fixed barrier-sync cost per time step
}

// DefaultCoreSpec returns Loihi-like constants (128 KB synaptic memory,
// 1024 compartments, ~24 pJ/SOP).
func DefaultCoreSpec() CoreSpec {
	return CoreSpec{
		MaxNeurons:     1024,
		MaxSynapses:    128 * 1024,
		EnergyPerSOpJ:  24e-12,
		EnergyPerSpike: 2e-12,
		EnergyPerHopJ:  4e-12,
		StaticPowerW:   1e-3,
		SOpTimeNS:      4,
		HopTimeNS:      6.5,
		StepTimeNS:     500,
	}
}

// layerProfile is the mapping-relevant summary of one weighted layer.
type layerProfile struct {
	name     string
	neurons  int     // output units
	synPer   []int   // live fan-in per output neuron (mask-aware)
	firing   float64 // spikes per neuron per step of the *output* population
	inSpikes float64 // spikes per step arriving from the previous layer
}

// Core is one occupied core of the placement.
type Core struct {
	Layer    int // index into the profile list
	Neurons  int
	Synapses int
	X, Y     int // mesh coordinates
}

// Placement maps a network onto a mesh of cores.
type Placement struct {
	Cores        []Core
	MeshW, MeshH int
	profiles     []layerProfile
	spec         CoreSpec
}

// profilesOf extracts per-layer neuron/synapse profiles from a network,
// honouring pruning masks, and attaches firing statistics from the LIF
// layers (populate them first with snn.Calibrate or snn.Trace).
func profilesOf(net *snn.Network) []layerProfile {
	var out []layerProfile
	lifRate := map[int]float64{} // weighted-layer index -> firing rate
	inRate := 1.0                // input population rate (assume dense)
	wi := 0
	var pending []int
	for _, l := range net.Layers {
		switch v := l.(type) {
		case *snn.Conv2D:
			positions := v.Geom.OutH() * v.Geom.OutW()
			neurons := v.OutC * positions
			fanIn := v.W.Len() / v.OutC
			p := layerProfile{name: "conv2d", neurons: neurons}
			p.synPer = make([]int, neurons)
			for oc := 0; oc < v.OutC; oc++ {
				liveOC := fanIn
				if v.Mask != nil {
					liveOC = 0
					for i := oc * fanIn; i < (oc+1)*fanIn; i++ {
						if v.Mask.Data[i] != 0 {
							liveOC++
						}
					}
				}
				for pos := 0; pos < positions; pos++ {
					p.synPer[oc*positions+pos] = liveOC
				}
			}
			out = append(out, p)
			pending = append(pending, wi)
			wi++
		case *snn.Dense:
			p := layerProfile{name: "dense", neurons: v.Out}
			p.synPer = make([]int, v.Out)
			for o := 0; o < v.Out; o++ {
				live := v.In
				if v.Mask != nil {
					live = 0
					for i := o * v.In; i < (o+1)*v.In; i++ {
						if v.Mask.Data[i] != 0 {
							live++
						}
					}
				}
				p.synPer[o] = live
			}
			out = append(out, p)
			pending = append(pending, wi)
			wi++
		case *snn.LIF:
			rate := v.MeanSpikesPerStep() / float64(max(1, v.StatUnits))
			for _, j := range pending {
				lifRate[j] = rate
			}
			pending = pending[:0]
		}
	}
	// Attach rates: a layer's input spikes come from the previous
	// layer's output population (or the raw input for the first).
	prevRate := inRate
	prevNeurons := 0
	for i := range out {
		r, ok := lifRate[i]
		if !ok {
			r = prevRate // readout: no LIF, inherits input activity scale
		}
		out[i].firing = r
		if i == 0 {
			// Input spikes per step estimated as fan-in coverage; use
			// the layer's own synapse count as the SOP driver instead.
			out[i].inSpikes = float64(sumInt(out[i].synPer)) * prevRate
		} else {
			out[i].inSpikes = float64(prevNeurons) * prevRate
		}
		prevRate = r
		prevNeurons = out[i].neurons
	}
	return out
}

// Map places the network onto cores greedily, layer-major, splitting
// layers across cores when either capacity bound is hit. It returns an
// error if a single neuron's fan-in exceeds a core's synapse capacity.
func Map(net *snn.Network, spec CoreSpec) (*Placement, error) {
	profiles := profilesOf(net)
	var cores []Core
	for li, p := range profiles {
		curN, curS := 0, 0
		for n := 0; n < p.neurons; n++ {
			s := p.synPer[n]
			if s > spec.MaxSynapses {
				return nil, fmt.Errorf("hw: layer %d neuron %d needs %d synapses > core capacity %d",
					li, n, s, spec.MaxSynapses)
			}
			if curN+1 > spec.MaxNeurons || curS+s > spec.MaxSynapses {
				cores = append(cores, Core{Layer: li, Neurons: curN, Synapses: curS})
				curN, curS = 0, 0
			}
			curN++
			curS += s
		}
		if curN > 0 {
			cores = append(cores, Core{Layer: li, Neurons: curN, Synapses: curS})
		}
	}
	// Lay cores on a near-square mesh in placement order (layers are
	// contiguous, so consecutive layers sit near each other).
	w := int(math.Ceil(math.Sqrt(float64(len(cores)))))
	if w < 1 {
		w = 1
	}
	h := (len(cores) + w - 1) / w
	for i := range cores {
		cores[i].X = i % w
		cores[i].Y = i / w
	}
	return &Placement{Cores: cores, MeshW: w, MeshH: h, profiles: profiles, spec: spec}, nil
}

// Report is the hardware-level cost of running one inference of Steps
// time steps on the placement.
type Report struct {
	CoresUsed    int
	NeuronsUsed  int
	SynapsesUsed int

	SOPsPerStep   float64 // synaptic operations per time step
	SpikesPerStep float64 // spikes generated per time step
	HopsPerStep   float64 // spike·hops of NoC traffic per time step

	EnergyPerInferenceJ  float64
	LatencyPerInferenceS float64
	MeanCoreUtilization  float64 // neuron-slot occupancy
}

// Analyze computes the report for an inference of steps time steps.
// Firing statistics must be present on the network's LIF layers when Map
// was called (run snn.Calibrate on a representative workload first).
func (p *Placement) Analyze(steps int) Report {
	rep := Report{CoresUsed: len(p.Cores)}
	for _, c := range p.Cores {
		rep.NeuronsUsed += c.Neurons
		rep.SynapsesUsed += c.Synapses
	}
	if len(p.Cores) > 0 {
		rep.MeanCoreUtilization = float64(rep.NeuronsUsed) / float64(len(p.Cores)*p.spec.MaxNeurons)
	}

	// Per-layer core centroids for traffic distances.
	type centroid struct {
		x, y  float64
		cores int
	}
	cent := make([]centroid, len(p.profiles))
	for _, c := range p.Cores {
		cent[c.Layer].x += float64(c.X)
		cent[c.Layer].y += float64(c.Y)
		cent[c.Layer].cores++
	}
	for i := range cent {
		if cent[i].cores > 0 {
			cent[i].x /= float64(cent[i].cores)
			cent[i].y /= float64(cent[i].cores)
		}
	}

	for i, prof := range p.profiles {
		// SOPs: each incoming spike touches the mean live fan-in of the
		// destination layer.
		meanFan := 0.0
		if prof.neurons > 0 {
			meanFan = float64(sumInt(prof.synPer)) / float64(prof.neurons)
		}
		if i == 0 {
			rep.SOPsPerStep += prof.inSpikes // already synapse-weighted
		} else {
			rep.SOPsPerStep += prof.inSpikes * meanFan
		}
		outSpikes := prof.firing * float64(prof.neurons)
		rep.SpikesPerStep += outSpikes
		// Traffic: spikes from layer i to i+1 travel the Manhattan
		// distance between layer centroids (plus 1 hop minimum when
		// they span multiple cores).
		if i+1 < len(p.profiles) {
			d := math.Abs(cent[i].x-cent[i+1].x) + math.Abs(cent[i].y-cent[i+1].y)
			if d < 1 && (cent[i].cores > 1 || cent[i+1].cores > 1) {
				d = 1
			}
			rep.HopsPerStep += outSpikes * d
		}
	}

	s := float64(steps)
	dynamic := (rep.SOPsPerStep*p.spec.EnergyPerSOpJ +
		rep.SpikesPerStep*p.spec.EnergyPerSpike +
		rep.HopsPerStep*p.spec.EnergyPerHopJ) * s

	// Latency: per step, cores work in parallel; approximate the
	// critical path by the busiest layer's SOPs spread over its cores.
	stepLatency := p.spec.StepTimeNS
	for i, prof := range p.profiles {
		cores := cent[i].cores
		if cores == 0 {
			continue
		}
		meanFan := 0.0
		if prof.neurons > 0 {
			meanFan = float64(sumInt(prof.synPer)) / float64(prof.neurons)
		}
		sops := prof.inSpikes * meanFan
		if i == 0 {
			sops = prof.inSpikes
		}
		lat := sops / float64(cores) * p.spec.SOpTimeNS
		if lat > stepLatency-p.spec.StepTimeNS {
			stepLatency = p.spec.StepTimeNS + lat
		}
	}
	// NoC latency: mean hops per spike (pipeline, amortized).
	if rep.SpikesPerStep > 0 {
		stepLatency += rep.HopsPerStep / rep.SpikesPerStep * p.spec.HopTimeNS
	}
	rep.LatencyPerInferenceS = stepLatency * s * 1e-9
	static := p.spec.StaticPowerW * float64(rep.CoresUsed) * rep.LatencyPerInferenceS
	rep.EnergyPerInferenceJ = dynamic + static
	return rep
}

// String renders the report compactly.
func (r Report) String() string {
	return fmt.Sprintf("cores=%d util=%.0f%% sops/step=%.0f hops/step=%.0f energy=%.3gJ latency=%.3gs",
		r.CoresUsed, 100*r.MeanCoreUtilization, r.SOPsPerStep, r.HopsPerStep,
		r.EnergyPerInferenceJ, r.LatencyPerInferenceS)
}

func sumInt(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}
