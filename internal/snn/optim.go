package snn

import (
	"math"

	"repro/internal/tensor"
)

// Optimizer updates parameters from accumulated gradients.
//
// Steps are in-place: implementations mutate the parameter tensors and
// allocate at most once (lazily, for their moment state on the first
// Step). The training arena's zero-allocation contract depends on this
// — TestTrainStepScratchZeroAllocs runs the optimizer inside its
// steady-state cycle.
type Optimizer interface {
	// Step applies one update. params and grads are aligned; scale is
	// multiplied into every gradient (e.g. 1/batchSize).
	Step(params, grads []*tensor.Tensor, scale float32)
}

// SGD is stochastic gradient descent with classical momentum.
type SGD struct {
	LR       float32
	Momentum float32

	vel [][]float32
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum float32) *SGD { return &SGD{LR: lr, Momentum: momentum} }

// Step implements Optimizer.
func (s *SGD) Step(params, grads []*tensor.Tensor, scale float32) {
	if s.vel == nil {
		s.vel = make([][]float32, len(params))
		for i, p := range params {
			s.vel[i] = make([]float32, p.Len())
		}
	}
	for i, p := range params {
		g := grads[i]
		v := s.vel[i]
		for j := range p.Data {
			v[j] = float32(s.Momentum*v[j]) + float32(g.Data[j]*scale)
			p.Data[j] -= float32(s.LR * v[j])
		}
	}
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float32

	t int
	m [][]float32
	v [][]float32
}

// NewAdam returns Adam with the usual defaults for the moment decays.
func NewAdam(lr float32) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step implements Optimizer.
func (a *Adam) Step(params, grads []*tensor.Tensor, scale float32) {
	if a.m == nil {
		a.m = make([][]float32, len(params))
		a.v = make([][]float32, len(params))
		for i, p := range params {
			a.m[i] = make([]float32, p.Len())
			a.v[i] = make([]float32, p.Len())
		}
	}
	a.t++
	b1c := 1 - float32(math.Pow(float64(a.Beta1), float64(a.t)))
	b2c := 1 - float32(math.Pow(float64(a.Beta2), float64(a.t)))
	for i, p := range params {
		g := grads[i]
		m, v := a.m[i], a.v[i]
		for j := range p.Data {
			gj := g.Data[j] * scale
			m[j] = float32(a.Beta1*m[j]) + float32((1-a.Beta1)*gj)
			v[j] = float32(a.Beta2*v[j]) + float32((1-a.Beta2)*gj*gj)
			mh := m[j] / b1c
			vh := v[j] / b2c
			p.Data[j] -= a.LR * mh / (sqrt32(vh) + a.Eps)
		}
	}
}
