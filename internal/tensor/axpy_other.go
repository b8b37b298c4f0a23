//go:build !amd64

package tensor

// axpy computes y[i] += a·x[i] for every i < len(x); see axpy_amd64.go.
// Other architectures run the portable loop, whose explicit rounding
// keeps their results equal to amd64's.
func axpy(a float32, x, y []float32) { axpyGo(a, x, y) }
