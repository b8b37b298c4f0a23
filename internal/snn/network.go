package snn

import (
	"fmt"

	"repro/internal/tensor"
)

// Config holds the structural parameters the paper sweeps: threshold
// voltage Vth and number of time steps T, plus the fixed dynamics
// constants.
type Config struct {
	VTh   float32 // LIF threshold voltage
	Steps int     // time steps T per sample
	Decay float32 // membrane leak λ
	Beta  float32 // surrogate sharpness
}

// DefaultConfig returns the dynamics constants used throughout the
// experiments (Vth and Steps are experiment parameters).
func DefaultConfig(vth float32, steps int) Config {
	return Config{VTh: vth, Steps: steps, Decay: 0.9, Beta: 4}
}

// Network is an ordered stack of layers processing a batch of samples
// as Config.Steps time steps. The final layer acts as a non-spiking
// readout: its per-step outputs are accumulated into logits.
type Network struct {
	Cfg    Config
	Layers []Layer

	// trainFree parks the network's arenas (train_arena.go).
	trainFree []*TrainScratch

	// Inference precision tier (tier.go): FP32 exact or INT8 quantized.
	tier PrecisionTier
}

// NewNetwork assembles a network from layers.
func NewNetwork(cfg Config, layers ...Layer) *Network {
	return &Network{Cfg: cfg, Layers: layers}
}

// Reset begins a new pass on every layer's ForwardBatch arena (see
// adapter).
func (n *Network) Reset() {
	for _, l := range n.Layers {
		l.Reset()
	}
}

// ResetStats clears LIF calibration statistics network-wide.
func (n *Network) ResetStats() {
	for _, l := range n.Layers {
		if lif, ok := l.(*LIF); ok {
			lif.ResetStats()
		}
	}
}

// Predict returns the argmax class for a sample: PredictBatchInto on a
// batch of one, so it runs the arena's inference pass and its steady
// state allocates nothing.
func (n *Network) Predict(frames []*tensor.Tensor) int {
	one := [1][]*tensor.Tensor{frames}
	var class [1]int
	n.PredictBatchInto(one[:], class[:])
	return class[0]
}

// ParamLayers returns the layers holding trainable parameters.
func (n *Network) ParamLayers() []ParamLayer {
	var out []ParamLayer
	for _, l := range n.Layers {
		if pl, ok := l.(ParamLayer); ok {
			out = append(out, pl)
		}
	}
	return out
}

// Params returns all parameter tensors in a stable order.
func (n *Network) Params() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, pl := range n.ParamLayers() {
		out = append(out, pl.Params()...)
	}
	return out
}

// Grads returns all gradient tensors, aligned with Params.
func (n *Network) Grads() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, pl := range n.ParamLayers() {
		out = append(out, pl.Grads()...)
	}
	return out
}

// LIFLayers returns the spiking layers in order.
func (n *Network) LIFLayers() []*LIF {
	var out []*LIF
	for _, l := range n.Layers {
		if lif, ok := l.(*LIF); ok {
			out = append(out, lif)
		}
	}
	return out
}

// SetVTh updates the threshold voltage on the config and on every LIF
// layer (used when re-deriving a network at a new structural point).
func (n *Network) SetVTh(vth float32) {
	n.Cfg.VTh = vth
	for _, l := range n.LIFLayers() {
		l.VTh = vth
	}
}

// CloneArchitecture builds a structurally identical network with *shared*
// parameter tensors but independent state/caches/masks/grad buffers. Use
// it to evaluate one trained model concurrently from several goroutines:
// workers may run any pass freely as long as nobody writes to the shared
// weights. The precision tier and any int8 panels carry over:
// panels are shared read-only, scratch is per-clone.
func (n *Network) CloneArchitecture() *Network {
	out := &Network{Cfg: n.Cfg, tier: n.tier}
	for _, l := range n.Layers {
		switch v := l.(type) {
		case *Conv2D:
			c := &Conv2D{Geom: v.Geom, OutC: v.OutC, W: v.W, B: v.B, Mask: v.Mask,
				panel: v.panel, codesT: v.codesT, useInt8: v.useInt8}
			c.dW = tensor.New(v.dW.Shape...)
			c.dB = tensor.New(v.dB.Shape...)
			out.Layers = append(out.Layers, c)
		case *Dense:
			d := &Dense{In: v.In, Out: v.Out, W: v.W, B: v.B, Mask: v.Mask,
				panel: v.panel, useInt8: v.useInt8}
			d.dW = tensor.New(v.dW.Shape...)
			d.dB = tensor.New(v.dB.Shape...)
			out.Layers = append(out.Layers, d)
		case *LIF:
			out.Layers = append(out.Layers, NewLIF(v.VTh, v.Decay, v.Beta))
		case *AvgPool:
			out.Layers = append(out.Layers, NewAvgPool(v.K))
		case *Dropout:
			// Evaluation clones never train; drop the RNG dependency.
			out.Layers = append(out.Layers, &Dropout{P: v.P})
		case *Flatten:
			out.Layers = append(out.Layers, &Flatten{})
		default:
			panic(fmt.Sprintf("snn: CloneArchitecture: unknown layer %T", l)) //axsnn:allow-alloc cold shape guard: formats the panic once on misuse
		}
	}
	return out
}

// DeepClone builds a fully independent copy, including weights. The
// approx package uses it so pruning/quantization never touches the
// original accurate model.
func (n *Network) DeepClone() *Network {
	out := n.CloneArchitecture()
	for i, l := range out.Layers {
		switch v := l.(type) {
		case *Conv2D:
			src := n.Layers[i].(*Conv2D)
			v.W = src.W.Clone()
			v.B = src.B.Clone()
			if src.Mask != nil {
				v.Mask = src.Mask.Clone()
			}
		case *Dense:
			src := n.Layers[i].(*Dense)
			v.W = src.W.Clone()
			v.B = src.B.Clone()
			if src.Mask != nil {
				v.Mask = src.Mask.Clone()
			}
		}
	}
	// Deep clones exist to be mutated (approx prunes and quantizes
	// them), which would leave shared int8 panels stale: drop them and
	// reset the tier; callers rebuild via BuildInt8Panels when needed.
	out.tier = TierFP32
	for _, l := range out.Layers {
		switch v := l.(type) {
		case *Conv2D:
			v.panel, v.codesT, v.useInt8 = nil, nil, false
		case *Dense:
			v.panel, v.useInt8 = nil, false
		}
	}
	return out
}
