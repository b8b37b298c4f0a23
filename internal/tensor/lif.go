package tensor

// LIFStepGo advances the leaky integrate-and-fire neurons one time step
// for every i < len(x): v ← decay·v + x, out = 1 and v ← v − vth where
// v ≥ vth, else out = 0. When pre is non-nil it also caches the
// pre-reset potential pre = v + out·vth, from the post-reset v. It
// returns the number of spikes. This is the portable form of
// LIFStepInto and the reference its assembly is tested against. The
// explicit float32 conversions round each product before its add, so
// a compiler that fuses multiply-adds (arm64) agrees with amd64.
func LIFStepGo(v, x, out, pre []float32, decay, vth float32) (spikes int) {
	n := len(x)
	v, out = v[:n:len(v)], out[:n:len(out)]
	if pre != nil {
		pre = pre[:n:len(pre)]
	}
	for i, in := range x {
		vv := float32(decay*v[i]) + in
		var o float32
		if vv >= vth {
			o = 1
			spikes++
			vv -= vth
		}
		out[i] = o
		v[i] = vv
		if pre != nil {
			pre[i] = vv + float32(o*vth)
		}
	}
	return spikes
}

// LIFGradGo is the surrogate-gradient step of BPTT through the LIF
// neurons for every i < len(grad): with u = |pre − vth| and
// d = 1 + beta·u, carry ← grad·beta/d² + decay·carry, where the carry
// term is left out when first is set (the last time step, whose carry
// holds nothing yet). This is the portable form of LIFGradInto and the
// reference its assembly is tested against; the float32 conversions
// keep arm64 from fusing, as in LIFStepGo.
func LIFGradGo(carry, grad, pre []float32, vth, beta, decay float32, first bool) {
	n := len(grad)
	carry, pre = carry[:n:len(carry)], pre[:n:len(pre)]
	for i, g := range grad {
		u := pre[i] - vth
		if u < 0 {
			u = -u
		}
		d := 1 + float32(beta*u)
		dv := float32(g * (beta / (d * d)))
		if !first {
			dv += float32(decay * carry[i])
		}
		carry[i] = dv
	}
}
