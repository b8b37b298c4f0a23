// Package pool exercises acquire/release pairing: deferred releases,
// plain releases, leaks, loop-scoped defers, ownership transfer, and
// the manual-release escape hatch.
package pool

// Unit is a pooled work unit.
type Unit struct{ data []float64 }

// Pool is a bounded free-list pool.
type Pool struct{ free []*Unit }

func (p *Pool) AcquireTrainScratch() *Unit {
	if n := len(p.free); n > 0 {
		u := p.free[n-1]
		p.free = p.free[:n-1]
		return u
	}
	return &Unit{data: make([]float64, 64)}
}

func (p *Pool) ReleaseTrain(u *Unit) { p.free = append(p.free, u) }

func (p *Pool) AcquireClone() *Unit     { return p.AcquireTrainScratch() }
func (p *Pool) AcquireCloneTier() *Unit { return p.AcquireTrainScratch() }
func (p *Pool) ReleaseClone(u *Unit)    { p.ReleaseTrain(u) }
func (p *Pool) AcquireSlot() *Unit      { return p.AcquireTrainScratch() }
func (p *Pool) ReleaseSlot(u *Unit)     { p.ReleaseTrain(u) }
