package snn

import "repro/internal/tensor"

// The arena's buffer store. A Scratch holds every buffer a network's
// passes need, keyed by (layer index, slot), so a steady-state pass
// allocates no tensors once shapes have been seen. TrainScratch
// (train_arena.go) wraps one and folds the time step into the slot for
// the per-step caches BPTT reads; the training, input-gradient and
// inference passes all draw from it. Weight-derived panels (mask
// application, transposition) are re-derived once per pass through the
// generation counter, so weight mutation between passes stays safe.

// slotKey addresses one reusable buffer: the owning layer's position in
// the network and a layer-chosen slot number.
type slotKey struct {
	layer, slot int
}

// slot numbers shared by the layer implementations. Buffers and views
// may not collide on (layer, slot), so each layer type draws from this
// single enumeration. The arena folds the time step into the slot (see
// trainSlotStride in train_arena.go), so the enumeration must stay
// below that stride.
const (
	slotOut      = iota // layer output buffer
	slotState           // persistent per-pass state (LIF membrane)
	slotOutT            // conv channel-last result panel (B·N, OutC)
	slotEffW            // mask-applied weights, once per pass
	slotWT              // transposed weights (Conv2D's tap-reversed), once per pass
	slotInView          // view of one input sample
	slotOutView         // view of one output sample
	slotLogits          // accumulated readout (network-level)
	slotFrame           // batched input frame (network-level)
	slotPre             // LIF pre-reset potential, per step (training)
	slotCarry           // LIF dL/dV carry across reverse steps (training)
	slotXCache          // Dense and Conv2D input cache, per step (training)
	slotGrad            // layer input-gradient buffer (training)
	slotGradView        // view of the gradient in another shape (training)
	slotMask            // dropout mask, once per pass (training)
	slotDims            // pool input dims, per pass (training)
	slotG2B             // conv gradient de-interleave panel (training)
	slotGradOut         // output gradient kept for the reduction, per step parity: Conv2D's channel-last (B·N, OutC), Dense's copy (training)
	slotDCols           // conv column-gradient panel (training)
	slotGradStep        // per-step input-gradient copy (network-level)
	slotGradSum         // summed input gradient (network-level)
	slotLossGrad        // dL/dlogits buffer (network-level)
	slotActStep         // int8 conv receptive-field activation steps (inference)
	slotAcc             // int8 conv int32 accumulators (inference)
	slotCount           // number of slots; must stay <= trainSlotStride
)

// netLayer is the pseudo layer index for network-level buffers.
const netLayer = -1

type scratchEntry struct {
	t *tensor.Tensor
	// state entries are zeroed at the start of every pass (begin).
	state bool
	// view entries borrow caller data; release drops the reference.
	view bool
	// gen is the pass generation that last refreshed a once-per-pass
	// entry (effective/transposed weights).
	gen uint64
}

// Scratch is a per-network store of reusable arena buffers.
type Scratch struct {
	m   map[slotKey]*scratchEntry
	gen uint64
}

// begin opens a new forward pass: persistent state buffers (membranes)
// are cleared and once-per-pass entries invalidated.
func (s *Scratch) begin() {
	s.gen++
	for _, e := range s.m {
		if e.state {
			e.t.Zero()
		}
	}
}

// entry returns the (layer, slot) entry, creating it on first use.
func (s *Scratch) entry(layer, slot int) *scratchEntry {
	k := slotKey{layer, slot}
	e := s.m[k]
	if e == nil {
		e = &scratchEntry{} //axsnn:allow-alloc one entry per (layer, slot), created on first use
		s.m[k] = e
	}
	return e
}

// sized returns the entry with a data buffer of exactly n elements.
func (s *Scratch) sized(layer, slot, n int) *scratchEntry {
	e := s.entry(layer, slot)
	e.fit(n)
	return e
}

// fit gives the entry a data buffer of exactly n elements. Reuse is
// capacity-based: the buffer reallocates only when n exceeds the
// largest size the slot has ever held and shrinks by reslicing — so a
// caller whose batch width varies pass to pass (a streaming pipeline's
// last round classifies whatever windows remain: 4, 4, 1, …) settles at
// the high-water size and then never allocates again.
func (e *scratchEntry) fit(n int) {
	switch {
	case e.t == nil || cap(e.t.Data) < n:
		e.t = &tensor.Tensor{Data: make([]float32, n)} //axsnn:allow-alloc grows only past the slot's high-water capacity (a larger shape or batch); smaller sizes reslice
	case len(e.t.Data) != n:
		// Reslicing can expose stale values a larger pass left beyond
		// the previous length. Working buffers are overwritten by
		// contract (see buf2); state buffers must open the pass at
		// zero, and begin() only zeroed the previous length.
		e.t.Data = e.t.Data[:n]
		if e.state {
			e.t.Zero()
		}
	}
}

// fitShape is fit for an existing shape slice, setting the buffer's
// shape to it.
func (e *scratchEntry) fitShape(shape []int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	e.fit(n)
	t := e.t
	if len(t.Shape) != len(shape) {
		t.Shape = make([]int, len(shape)) //axsnn:allow-alloc rank changes at most once per slot
	}
	copy(t.Shape, shape)
	return t
}

// claim reports whether a once-per-pass entry still has to be filled
// this pass (generation gen), and marks it filled.
func (e *scratchEntry) claim(gen uint64) bool {
	fresh := e.gen != gen
	e.gen = gen
	return fresh
}

// setShape2..4 reshape a tensor header in place, only allocating when
// the rank changes (which a given slot does at most once).
func setShape2(t *tensor.Tensor, a, b int) {
	if len(t.Shape) != 2 {
		t.Shape = make([]int, 2) //axsnn:allow-alloc rank changes at most once per slot
	}
	t.Shape[0], t.Shape[1] = a, b
}

func setShape3(t *tensor.Tensor, a, b, c int) {
	if len(t.Shape) != 3 {
		t.Shape = make([]int, 3) //axsnn:allow-alloc rank changes at most once per slot
	}
	t.Shape[0], t.Shape[1], t.Shape[2] = a, b, c
}

func setShape4(t *tensor.Tensor, a, b, c, d int) {
	if len(t.Shape) != 4 {
		t.Shape = make([]int, 4) //axsnn:allow-alloc rank changes at most once per slot
	}
	t.Shape[0], t.Shape[1], t.Shape[2], t.Shape[3] = a, b, c, d
}

// buf2 and buf4 return a reusable buffer of the given shape. Contents
// are unspecified; callers overwrite every element.
func (s *Scratch) buf2(layer, slot, a, b int) *tensor.Tensor {
	e := s.sized(layer, slot, a*b)
	setShape2(e.t, a, b)
	return e.t
}

func (s *Scratch) buf4(layer, slot, a, b, c, d int) *tensor.Tensor {
	e := s.sized(layer, slot, a*b*c*d)
	setShape4(e.t, a, b, c, d)
	return e.t
}

// bufShape is buf for an existing shape slice (e.g. mirroring an input).
func (s *Scratch) bufShape(layer, slot int, shape []int) *tensor.Tensor {
	return s.entry(layer, slot).fitShape(shape)
}

// stateBufShape is bufShape for a buffer that must persist across the
// steps of one pass and read as zero at the start of every pass (the
// LIF membrane).
func (s *Scratch) stateBufShape(layer, slot int, shape []int) *tensor.Tensor {
	e := s.entry(layer, slot)
	e.state = true
	return e.fitShape(shape)
}

// once2 returns a once-per-pass buffer plus whether the caller must
// (re)fill it this pass — the weight-panel cache (mask application,
// transposition).
func (s *Scratch) once2(layer, slot, a, b int) (*tensor.Tensor, bool) {
	e := s.sized(layer, slot, a*b)
	setShape2(e.t, a, b)
	return e.t, e.claim(s.gen)
}

// onceShape is once2 for an arbitrary shape. The arena also uses the
// freshness bit for per-pass state whose first use must see it
// uninitialized (the LIF backward carry, the dropout mask).
func (s *Scratch) onceShape(layer, slot int, shape []int) (*tensor.Tensor, bool) {
	e := s.entry(layer, slot)
	return e.fitShape(shape), e.claim(s.gen)
}

// view2 and view3 return a cached tensor header wrapping caller data —
// the allocation-free Reshape/FromSlice. The header is reused, so a view
// is only valid until the slot's next use.
func (s *Scratch) viewEntry(layer, slot int, data []float32) *scratchEntry {
	e := s.entry(layer, slot)
	if e.t == nil {
		e.t = &tensor.Tensor{} //axsnn:allow-alloc one view header per slot, created on first use
	}
	e.view = true
	e.t.Data = data
	return e
}

func (s *Scratch) view2(layer, slot int, data []float32, a, b int) *tensor.Tensor {
	e := s.viewEntry(layer, slot, data)
	setShape2(e.t, a, b)
	return e.t
}

func (s *Scratch) view3(layer, slot int, data []float32, a, b, c int) *tensor.Tensor {
	e := s.viewEntry(layer, slot, data)
	setShape3(e.t, a, b, c)
	return e.t
}

// viewShape is view2/view3 for an arbitrary shape slice.
func (s *Scratch) viewShape(layer, slot int, data []float32, shape []int) *tensor.Tensor {
	e := s.viewEntry(layer, slot, data)
	if len(e.t.Shape) != len(shape) {
		e.t.Shape = make([]int, len(shape)) //axsnn:allow-alloc rank changes at most once per slot
	}
	copy(e.t.Shape, shape)
	return e.t
}

// release drops borrowed data references so a parked arena cannot keep
// caller tensors alive.
func (s *Scratch) release() {
	for _, e := range s.m {
		if e.view && e.t != nil {
			e.t.Data = nil
		}
	}
}
