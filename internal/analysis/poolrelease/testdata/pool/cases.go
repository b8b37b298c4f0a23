package pool

// Good defers the release directly.
func Good(p *Pool) float64 {
	u := p.AcquireTrainScratch()
	defer p.ReleaseTrain(u)
	return u.data[0]
}

// GoodLit releases inside a deferred function literal.
func GoodLit(p *Pool) float64 {
	u := p.AcquireTrainScratch()
	defer func() {
		p.ReleaseTrain(u)
	}()
	return u.data[0]
}

// Plain releases manually: a panic or early return before the release
// leaks the unit.
func Plain(p *Pool) float64 {
	u := p.AcquireTrainScratch()
	v := u.data[0]
	p.ReleaseTrain(u) // want `ReleaseTrain of u must be deferred`
	return v
}

// Leak never releases.
func Leak(p *Pool) float64 {
	u := p.AcquireTrainScratch() // want `AcquireTrainScratch result u is never released`
	return u.data[0]
}

// Discard drops the result on the floor.
func Discard(p *Pool) {
	p.AcquireClone() // want `result of AcquireClone is discarded`
}

// CloneTierGood pairs the tiered clone acquire with the clone release.
func CloneTierGood(p *Pool) float64 {
	u := p.AcquireCloneTier()
	defer p.ReleaseClone(u)
	return u.data[0]
}

// CloneTierPlain releases the tiered clone manually.
func CloneTierPlain(p *Pool) float64 {
	u := p.AcquireCloneTier()
	v := u.data[0]
	p.ReleaseClone(u) // want `ReleaseClone of u must be deferred`
	return v
}

// SlotGood pairs the frame-slot acquire with a deferred release.
func SlotGood(p *Pool) float64 {
	u := p.AcquireSlot()
	defer p.ReleaseSlot(u)
	return u.data[0]
}

// SlotLeak never releases the slot.
func SlotLeak(p *Pool) float64 {
	u := p.AcquireSlot() // want `AcquireSlot result u is never released`
	return u.data[0]
}

// LoopDefer acquires per iteration but defers once.
func LoopDefer(p *Pool, n int) {
	var u *Unit
	for i := 0; i < n; i++ {
		u = p.AcquireTrainScratch() // want `released by a defer outside it`
	}
	if u != nil {
		defer p.ReleaseTrain(u)
	}
}

// LoopScoped wraps each iteration in a closure: the defer runs per
// iteration, so no diagnostic.
func LoopScoped(p *Pool, n int) float64 {
	var acc float64
	for i := 0; i < n; i++ {
		func() {
			u := p.AcquireTrainScratch()
			defer p.ReleaseTrain(u)
			acc += u.data[0]
		}()
	}
	return acc
}

// Handout transfers ownership to the caller.
func Handout(p *Pool) *Unit {
	u := p.AcquireTrainScratch()
	return u
}

type slot struct{ u *Unit }

// Stash stores the unit with its owner.
func Stash(p *Pool, s *slot) {
	s.u = p.AcquireClone()
}

var global *Unit

// Publish parks the unit in a package variable.
func Publish(p *Pool) {
	g := p.AcquireTrainScratch()
	global = g
}

// ManualFunc opts the whole function out.
//
//axsnn:allow-manual-release the unit is released by Close, not here
func ManualFunc(p *Pool) {
	u := p.AcquireTrainScratch()
	u.data[0] = 1
}

// ManualLine excuses one manual release with a reason.
func ManualLine(p *Pool) float64 {
	u := p.AcquireTrainScratch()
	v := u.data[0]
	p.ReleaseTrain(u) //axsnn:allow-manual-release benchmarked loop body; defer cost measured and rejected
	return v
}
