//go:build !amd64

package tensor

// LIFStepInto advances the LIF neurons one step; see lif_amd64.go.
// Other architectures run the portable loop, whose explicit rounding
// keeps their results equal to amd64's.
func LIFStepInto(v, x, out, pre []float32, decay, vth float32) (spikes int) {
	return LIFStepGo(v, x, out, pre, decay, vth)
}

// LIFGradInto is the LIF surrogate-gradient step; see lif_amd64.go.
func LIFGradInto(carry, grad, pre []float32, vth, beta, decay float32, first bool) {
	LIFGradGo(carry, grad, pre, vth, beta, decay, first)
}
