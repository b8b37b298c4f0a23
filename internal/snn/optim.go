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

// optimGrain is the fewest parameter elements an optimizer step hands
// one pool block: smaller tensors update inline.
const optimGrain = 2048

// elemStep fans an optimizer's elementwise update out over the shared
// worker pool: each parameter's elements in contiguous ranges, each
// element updated on its own, so the result is the same at any worker
// count. The fan-out body is built once, with the moment state.
type elemStep struct {
	params, grads []*tensor.Tensor
	i             int // the parameter being updated
	body          func(lo, hi int)
}

// run applies the update to every parameter in turn.
func (e *elemStep) run(params, grads []*tensor.Tensor) {
	e.params, e.grads = params, grads
	for e.i = range params {
		tensor.ParallelFor(params[e.i].Len(), optimGrain, e.body)
	}
	e.params, e.grads = nil, nil
}

// SGD is stochastic gradient descent with classical momentum.
type SGD struct {
	LR       float32
	Momentum float32

	vel   [][]float32
	scale float32
	step  elemStep
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
		s.step.body = s.update
	}
	s.scale = scale
	s.step.run(params, grads)
}

// update steps elements [lo, hi) of the running parameter.
func (s *SGD) update(lo, hi int) {
	i := s.step.i
	p, g, v := s.step.params[i].Data[lo:hi], s.step.grads[i].Data[lo:hi], s.vel[i][lo:hi]
	for j := range p {
		v[j] = float32(s.Momentum*v[j]) + float32(g[j]*s.scale)
		p[j] -= float32(s.LR * v[j])
	}
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float32

	t        int
	m        [][]float32
	v        [][]float32
	scale    float32
	b1c, b2c float32
	step     elemStep
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
		a.step.body = a.update
	}
	a.t++
	a.scale = scale
	a.b1c = 1 - float32(math.Pow(float64(a.Beta1), float64(a.t)))
	a.b2c = 1 - float32(math.Pow(float64(a.Beta2), float64(a.t)))
	a.step.run(params, grads)
}

// update steps elements [lo, hi) of the running parameter.
func (a *Adam) update(lo, hi int) {
	i := a.step.i
	p, g := a.step.params[i].Data[lo:hi], a.step.grads[i].Data[lo:hi]
	m, v := a.m[i][lo:hi], a.v[i][lo:hi]
	for j := range p {
		gj := g[j] * a.scale
		m[j] = float32(a.Beta1*m[j]) + float32((1-a.Beta1)*gj)
		v[j] = float32(a.Beta2*v[j]) + float32((1-a.Beta2)*gj*gj)
		mh := m[j] / a.b1c
		vh := v[j] / a.b2c
		p[j] -= a.LR * mh / (sqrt32(vh) + a.Eps)
	}
}
