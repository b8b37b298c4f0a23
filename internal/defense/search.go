package defense

import (
	"fmt"

	"repro/internal/approx"
	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/encoding"
	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// SearchSpace is Algorithm 1's input grid: threshold voltages, time
// steps, precision scales and approximation levels.
type SearchSpace struct {
	VThs   []float32
	Steps  []int
	Scales []quant.Scale
	Levels []float64
}

// SearchConfig drives PrecisionScalingSearch (Algorithm 1).
type SearchConfig struct {
	Space SearchSpace

	// AttackFor builds the adversarial attack for a given budget; the
	// paper instantiates PGD or BIM here.
	AttackFor func(eps float64) *attack.Gradient
	Eps       float64

	// Q is the quality constraint: minimum acceptable accuracy (and
	// robustness) in [0,1]. Models below Q after training are skipped
	// (Line 4); the first configuration with robustness ≥ Q is returned
	// (Lines 22-24).
	Q float64

	Train *dataset.Set
	Test  *dataset.Set

	// BuildNet constructs an untrained network for a structural point.
	BuildNet func(cfg snn.Config, r *rng.RNG) *snn.Network
	// TrainOpts yields fresh training options (a fresh optimizer!) per
	// model.
	TrainOpts func() snn.TrainOptions

	Encoder encoding.Encoder
	// CalibN is how many test samples feed the Eq. 1 calibration.
	CalibN int
	Seed   uint64

	// Workers, when positive, caps how many (Vth, T) cells train at
	// once; 0 leaves it to the shared pool's budget (tensor.Workers).
	Workers int
}

// Candidate is one evaluated configuration.
type Candidate struct {
	VTh   float32
	Steps int
	Scale quant.Scale
	Level float64

	CleanAcc   float64 // accurate model accuracy, no attack
	AdvAcc     float64 // approximate model accuracy under attack
	Robustness float64 // Line 21: R(ε) = 1 − adv/|Dts|
	Accepted   bool    // R ≥ Q
}

// String formats a candidate like the paper's Table I rows.
func (c Candidate) String() string {
	return fmt.Sprintf("(Vth=%.2f,T=%d) (%s, %g) acc=%.0f%%",
		c.VTh, c.Steps, c.Scale, c.Level, 100*c.AdvAcc)
}

// SearchResult carries the accepted configuration (if any) and the whole
// scan, which the experiment harness turns into Table I.
type SearchResult struct {
	Best *Candidate
	All  []Candidate
}

// PrecisionScalingSearch implements Algorithm 1. For every structural
// point (Vth, T) it trains an accurate SNN, crafts adversarial examples
// with it (the adversary's surrogate), then scans precision scales and
// approximation levels for the most robust AxSNN. Structural points are
// evaluated in parallel; results are deterministic given cfg.Seed.
func PrecisionScalingSearch(cfg SearchConfig) SearchResult {
	type cellOut struct {
		order int
		cands []Candidate
	}
	var cells []struct {
		vth float32
		ts  int
	}
	for _, v := range cfg.Space.VThs {
		for _, t := range cfg.Space.Steps {
			cells = append(cells, struct {
				vth float32
				ts  int
			}{v, t})
		}
	}

	// The structural grid runs its cells on the shared pool, one model
	// per cell, at most cfg.Workers cells at once when set. A fit whose
	// cell holds a pool worker runs its sample blocks inline, so the
	// pool stays the one fan-out.
	grain := 1
	if cfg.Workers > 0 {
		grain = (len(cells) + cfg.Workers - 1) / cfg.Workers
	}
	outs := make([]cellOut, len(cells))
	tensor.ParallelFor(len(cells), grain, func(lo, hi int) {
		for i, cell := range cells[lo:hi] {
			outs[lo+i] = cellOut{order: lo + i, cands: searchCell(cfg, cell.vth, cell.ts)}
		}
	})

	var res SearchResult
	for _, o := range outs {
		for _, c := range o.cands {
			c := c
			res.All = append(res.All, c)
			if c.Accepted && res.Best == nil {
				res.Best = &res.All[len(res.All)-1]
			}
		}
	}
	// If nothing met Q, surface the most robust candidate anyway.
	if res.Best == nil && len(res.All) > 0 {
		bi := 0
		for i, c := range res.All {
			if c.Robustness > res.All[bi].Robustness {
				bi = i
			}
		}
		res.Best = &res.All[bi]
	}
	return res
}

// searchCell runs Lines 3-25 for one (Vth, T) structural point.
func searchCell(cfg SearchConfig, vth float32, ts int) []Candidate {
	seed := cfg.Seed ^ (uint64(ts)<<24 + uint64(vth*1000))
	r := rng.New(seed)

	// Line 3: train the accurate model at this structural point.
	netCfg := snn.DefaultConfig(vth, ts)
	acc := cfg.BuildNet(netCfg, r.Split())
	opts := cfg.TrainOpts()
	opts.Encoder = cfg.Encoder
	opts.Seed = seed + 1
	snn.Train(acc, cfg.Train, opts)

	// Line 4: quality gate.
	cleanAcc := snn.Accuracy(acc, cfg.Test, cfg.Encoder, seed+2)
	if cleanAcc < cfg.Q {
		return nil
	}

	// Line 5: craft the adversarial test set once. Threat model (§III):
	// the adversary knows the architecture but not the trained
	// parameters, so it trains its own surrogate of the same
	// architecture and transfers the examples to the victims.
	sur := cfg.BuildNet(snn.DefaultConfig(vth, ts), rng.New(seed+100))
	surOpts := cfg.TrainOpts()
	surOpts.Encoder = cfg.Encoder
	surOpts.Seed = seed + 101
	snn.Train(sur, cfg.Train, surOpts)

	atk := cfg.AttackFor(cfg.Eps)
	advSet := atk.PerturbSet(sur, cfg.Test, rng.New(seed+3))

	// Calibration frames for Eq. 1.
	calib := calibFrames(cfg, acc, seed+4)

	// Lines 6-25: precision scales × approximation levels.
	var cands []Candidate
	for _, scale := range cfg.Space.Scales {
		for _, level := range cfg.Space.Levels {
			ax, _ := approx.Approximate(acc, approx.Params{Level: level, Scale: scale}, calib)
			advAcc := snn.Accuracy(ax, advSet, cfg.Encoder, seed+5)
			c := Candidate{
				VTh: vth, Steps: ts, Scale: scale, Level: level,
				CleanAcc: cleanAcc, AdvAcc: advAcc,
				Robustness: advAcc, // R(ε) = 1 − adv/|Dts| = adversarial accuracy
				Accepted:   advAcc >= cfg.Q,
			}
			cands = append(cands, c)
		}
	}
	return cands
}

// calibFrames encodes the first CalibN test images for calibration.
func calibFrames(cfg SearchConfig, net *snn.Network, seed uint64) [][]*tensor.Tensor {
	n := cfg.CalibN
	if n <= 0 {
		n = 16
	}
	if n > cfg.Test.Len() {
		n = cfg.Test.Len()
	}
	r := rng.New(seed)
	out := make([][]*tensor.Tensor, n)
	for i := 0; i < n; i++ {
		out[i] = cfg.Encoder.Encode(cfg.Test.Samples[i].Image, net.Cfg.Steps, r)
	}
	return out
}
