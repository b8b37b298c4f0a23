package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// lifStepBranchy is the arena LIF forward's loops as they stood before
// the kernel: a branch per neuron, then a second pass that rebuilds the
// pre-reset potential from the post-reset one. The only edit is the
// explicit float32 rounding the allocating oracle now also has, which
// changes no amd64 instruction and keeps arm64 from fusing.
func lifStepBranchy(v, x, out, pre []float32, decay, vth float32) int {
	spikes := 0
	for i, inp := range x {
		vv := float32(decay*v[i]) + inp
		var o float32
		if vv >= vth {
			o = 1
			spikes++
			vv -= vth
		}
		out[i] = o
		v[i] = vv
	}
	if pre != nil {
		for i := range x {
			pre[i] = v[i] + float32(out[i]*vth)
		}
	}
	return spikes
}

// lifGradBranchy is the arena LIF backward's loop as it stood before
// the kernel, with the same rounding edit.
func lifGradBranchy(carry, grad, pre []float32, vth, beta, decay float32, first bool) {
	for i, g := range grad {
		u := pre[i] - vth
		if u < 0 {
			u = -u
		}
		d := 1 + float32(beta*u)
		surr := beta / (d * d)
		dv := float32(g * surr)
		if !first {
			dv += float32(decay * carry[i])
		}
		carry[i] = dv
	}
}

// lifLengths hit every tail of the 4-lane kernels, and 4099 a long run.
var lifLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 4099}

// lifValue draws a membrane, current, gradient or cached potential: a
// special value a third of the time, one at or next to the threshold a
// sixth, and an ordinary value around it otherwise.
func lifValue(r *rng.RNG, vth float32) float32 {
	switch r.Intn(6) {
	case 0, 1:
		return axpySpecials[r.Intn(len(axpySpecials))]
	case 2:
		return []float32{vth, math.Nextafter32(vth, float32(math.Inf(1))), math.Nextafter32(vth, float32(math.Inf(-1))), -vth}[r.Intn(4)]
	}
	return (r.Float32() - 0.25) * 2 * vth
}

func lifValues(r *rng.RNG, n int, vth float32) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = lifValue(r, vth)
	}
	return s
}

// bothNaN reports whether a commutative operation on a and b meets two
// NaNs. IEEE 754 leaves which payload survives to the implementation:
// x86 keeps the destination operand's, and Go's compiler picks the
// destination per build (a -race build picks differently from a plain
// one), so no loop has one answer there to match.
func bothNaN(a, b float32) bool { return a != a && b != b }

// mismatch reports the first index where got and want differ under
// math.Float32bits, or -1. In a lane that nan marks, where two NaNs met
// in one operation, both need only be NaN.
func mismatch(got, want []float32, nan []bool) int {
	for i := range want {
		if nan[i] && got[i] != got[i] && want[i] != want[i] {
			continue
		}
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

// lifGuard fills the element past a kernel's run; it must survive.
const lifGuard = 0x7fc0beef

func withGuard(s []float32) []float32 {
	g := append(append([]float32(nil), s...), math.Float32frombits(lifGuard))
	return g[:len(s)]
}

// TestLIFStepMatchesGo pins LIFStepInto to LIFStepGo and to the
// branchy two-pass loops it replaced, under math.Float32bits, at every
// tail length, with pre nil and non-nil, on inputs that mix ±0, ±Inf,
// NaNs with different signs and payloads, subnormals, values at and one
// ulp around the threshold, and leaks of 1, 0.9, ½ and 0. v, out, pre
// and the spike count must all agree, except that where v·decay and x
// are both NaN the membrane and cache need only be NaN (see bothNaN),
// and nothing past len(x) may be written.
func TestLIFStepMatchesGo(t *testing.T) {
	r := rng.New(11)
	for _, vth := range []float32{1, 0.5, 0.3, 2.5} {
		for _, decay := range []float32{1, 0.9, 0.5, 0} {
			for _, n := range lifLengths {
				for _, withPre := range []bool{false, true} {
					name := fmt.Sprintf("vth=%v decay=%v n=%d pre=%v", vth, decay, n, withPre)
					v0, x := lifValues(r, n, vth), lifValues(r, n, vth)
					out0 := lifValues(r, n, vth) // stale contents the kernel overwrites
					nan := make([]bool, n)
					for i := range nan {
						nan[i] = bothNaN(float32(decay*v0[i]), x[i])
					}
					type run struct {
						v, out, pre []float32
						spikes      int
					}
					exec := func(step func(v, x, out, pre []float32, decay, vth float32) int) run {
						rn := run{v: withGuard(v0), out: withGuard(out0)}
						if withPre {
							rn.pre = withGuard(out0)
						}
						rn.spikes = step(rn.v, x, rn.out, rn.pre, decay, vth)
						return rn
					}
					got := exec(LIFStepInto)
					for _, ref := range []struct {
						name string
						step func(v, x, out, pre []float32, decay, vth float32) int
					}{{"LIFStepGo", LIFStepGo}, {"branchy loops", lifStepBranchy}} {
						want := exec(ref.step)
						if got.spikes != want.spikes {
							t.Fatalf("%s: %d spikes, %s %d", name, got.spikes, ref.name, want.spikes)
						}
						for _, c := range []struct {
							what      string
							got, want []float32
						}{{"v", got.v, want.v}, {"out", got.out, want.out}, {"pre", got.pre, want.pre}} {
							if i := mismatch(c.got, c.want, nan); i >= 0 {
								t.Fatalf("%s: %s[%d] = %08x, %s %08x (v %08x, x %08x)", name, c.what, i,
									math.Float32bits(c.got[i]), ref.name, math.Float32bits(c.want[i]),
									math.Float32bits(v0[i]), math.Float32bits(x[i]))
							}
							if c.got != nil && math.Float32bits(c.got[:n+1][n]) != lifGuard {
								t.Fatalf("%s: %s written past len(x)", name, c.what)
							}
						}
					}
				}
			}
		}
	}
}

// TestLIFGradMatchesGo pins LIFGradInto to LIFGradGo and to the
// branchy loop it replaced, under math.Float32bits, at every tail
// length, with first true and false, on the special values of
// TestLIFStepMatchesGo in the gradient, the cached potential and the
// carry, at several sharpnesses and leaks. Where the surrogate and the
// gradient, or the two terms of the sum, are both NaN, the carry need
// only be NaN (see bothNaN); elsewhere a NaN's sign and payload must
// match too.
func TestLIFGradMatchesGo(t *testing.T) {
	r := rng.New(12)
	for _, vth := range []float32{1, 0.5, 0.3} {
		for _, beta := range []float32{4, 2.5, 0.5} {
			for _, decay := range []float32{1, 0.9, 0} {
				for _, n := range lifLengths {
					for _, first := range []bool{false, true} {
						name := fmt.Sprintf("vth=%v beta=%v decay=%v n=%d first=%v", vth, beta, decay, n, first)
						grad, pre, carry0 := lifValues(r, n, vth), lifValues(r, n, vth), lifValues(r, n, vth)
						nan := make([]bool, n)
						for i := range nan {
							u := pre[i] - vth
							d := 1 + float32(beta*u)
							surr := beta / (d * d)
							nan[i] = bothNaN(surr, grad[i]) || !first && bothNaN(float32(grad[i]*surr), float32(decay*carry0[i]))
						}
						got := withGuard(carry0)
						LIFGradInto(got, grad, pre, vth, beta, decay, first)
						for _, ref := range []struct {
							name string
							grad func(carry, grad, pre []float32, vth, beta, decay float32, first bool)
						}{{"LIFGradGo", LIFGradGo}, {"branchy loop", lifGradBranchy}} {
							want := withGuard(carry0)
							ref.grad(want, grad, pre, vth, beta, decay, first)
							if i := mismatch(got, want, nan); i >= 0 {
								t.Fatalf("%s: carry[%d] = %08x, %s %08x (grad %08x, pre %08x, carry %08x)", name, i,
									math.Float32bits(got[i]), ref.name, math.Float32bits(want[i]),
									math.Float32bits(grad[i]), math.Float32bits(pre[i]), math.Float32bits(carry0[i]))
							}
						}
						if math.Float32bits(got[:n+1][n]) != lifGuard {
							t.Fatalf("%s: carry written past len(grad)", name)
						}
					}
				}
			}
		}
	}
}

// TestLIFShortSlicePanics checks that every operand shorter than the
// kernel's length panics in Go rather than letting the assembly read
// or write past it.
func TestLIFShortSlicePanics(t *testing.T) {
	long, short := make([]float32, 9), make([]float32, 16)[:8]
	cases := map[string]func(){
		"step v":     func() { LIFStepInto(short, long, long, nil, 1, 1) },
		"step out":   func() { LIFStepInto(long, long, short, nil, 1, 1) },
		"step pre":   func() { LIFStepInto(long, long, long, short, 1, 1) },
		"grad carry": func() { LIFGradInto(short, long, long, 1, 4, 1, false) },
		"grad pre":   func() { LIFGradInto(long, long, short, 1, 4, 1, false) },
	}
	for name, call := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s shorter than the input did not panic", name)
				}
			}()
			call()
		}()
	}
}
