package tensor

// LIFStepInto is LIFStepGo in one pass per neuron step: on amd64
// lifStepSSE updates four neurons at a time with no data-dependent
// branch (the threshold test is a CMPPS lane mask), and LIFStepGo runs
// the last len(x) mod 4. Every lane computes what LIFStepGo's compiled
// MULSS/ADDSS/SUBSS code does, in the same operand order, so the two
// agree bit for bit (see lif_amd64.s). Reslicing v, out and a non-nil
// pre to len(x) makes a short one panic in Go instead of being overrun
// in assembly.
func LIFStepInto(v, x, out, pre []float32, decay, vth float32) (spikes int) {
	n := len(x)
	m := n &^ 3
	v, out = v[:n:len(v)], out[:n:len(out)]
	var preTail []float32
	if pre != nil {
		pre = pre[:n:len(pre)]
		pre, preTail = pre[:m], pre[m:]
	}
	spikes = lifStepSSE(v[:m], x[:m], out[:m], pre, decay, vth) //axsnn:allow-alloc assembly leaf: SSE loads, arithmetic and stores into v, out and pre, no call and no allocation
	return spikes + LIFStepGo(v[m:], x[m:], out[m:], preTail, decay, vth)
}

// LIFGradInto is LIFGradGo four neurons at a time: on amd64 lifGradSSE
// computes the fast-sigmoid surrogate with one DIVPS per four lanes,
// and LIFGradGo runs the last len(grad) mod 4. The lanes reproduce
// LIFGradGo's scalar operations and operand order (see lif_amd64.s).
// carry and pre are resliced to len(grad), so a short one panics in Go.
func LIFGradInto(carry, grad, pre []float32, vth, beta, decay float32, first bool) {
	n := len(grad)
	carry, pre = carry[:n:len(carry)], pre[:n:len(pre)]
	m := n &^ 3
	lifGradSSE(carry[:m], grad[:m], pre[:m], vth, beta, decay, first) //axsnn:allow-alloc assembly leaf: SSE loads, arithmetic and stores into carry, no call and no allocation
	LIFGradGo(carry[m:], grad[m:], pre[m:], vth, beta, decay, first)
}

// lifStepSSE is LIFStepInto's kernel (lif_amd64.s): len(x) must be a
// multiple of 4, v and out must be len(x) long, and pre either that
// long or empty, in which case nothing is cached.
//
//go:noescape
func lifStepSSE(v, x, out, pre []float32, decay, vth float32) (spikes int)

// lifGradSSE is LIFGradInto's kernel (lif_amd64.s): len(grad) must be
// a multiple of 4 and carry and pre len(grad) long.
//
//go:noescape
func lifGradSSE(carry, grad, pre []float32, vth, beta, decay float32, first bool)
