package snn

import "repro/internal/tensor"

// The inference arena. Every pre-arena Predict allocated ~250 KB of
// LIF/pool/GEMM scratch per sample (ROADMAP open item 3): each time step
// built fresh output tensors for every layer, and each sample re-derived
// the transposed weight panels. A Scratch owns all of those buffers,
// keyed by (layer index, slot), so steady-state inference — the
// event-domain evaluation loops, the attack inner loops, batched
// accuracy sweeps — allocates no tensors at all once shapes have been
// seen.
//
// Lifecycle: Network.AcquireScratch hands out an arena (recycled from a
// per-network free list), Predict/PredictBatch thread it through every
// layer, Network.Release returns it. The helpers do this implicitly, so
// callers keep the old one-line API; long evaluation loops can also
// acquire once and run many predictions against it. A Scratch belongs to
// one network (buffer shapes are keyed by layer position) and must not
// be shared between goroutines; concurrent evaluation uses
// CloneArchitecture clones, each with its own arena, exactly like the
// training paths.
//
// Correctness: the arena forward adds every output's terms in the same
// order as the allocating forward, so logits are bit-identical under ==
// (pinned by the property tests in arena_test.go). Dense, LIF and pool
// layers run the same kernels. Conv layers differ in kernel, not in
// sums: the arena's event-driven scatter adds each output's terms in
// ascending receptive-field position p, the order of the allocating
// path's im2row GEMM; its im2col GEMM adds the same nonzero terms in the
// same order and differs only in ±0 products, which == treats alike
// (tensor.TestConvScatterMatchesGEMM pins both). Weight-derived panels
// (mask application, transposition) are re-derived once per forward
// pass — the same cadence Reset gave the allocating path — so weight
// mutation between passes stays safe.

// slotKey addresses one reusable buffer: the owning layer's position in
// the network and a layer-chosen slot number.
type slotKey struct {
	layer, slot int
}

// slot numbers shared by the layer implementations. Buffers and views
// may not collide on (layer, slot), so each layer type draws from this
// single enumeration. The training arena folds the time step into the
// slot (see trainSlotStride in train_arena.go), so the enumeration must
// stay below that stride.
const (
	slotOut      = iota // layer output buffer
	slotState           // persistent per-pass state (LIF membrane)
	slotLow             // conv lowering panel
	slotGemm            // GEMM result panel
	slotEffW            // mask-applied weights, once per pass
	slotWT              // transposed weights, once per pass
	slotInView          // view of one input sample
	slotOutView         // view of one output sample
	slotLogits          // accumulated readout (network-level)
	slotFrame           // batched input frame (network-level)
	slotPre             // LIF pre-reset potential, per step (training)
	slotCarry           // LIF dL/dV carry across reverse steps (training)
	slotXCache          // dense input cache, per step (training)
	slotGrad            // layer input-gradient buffer (training)
	slotGradView        // view of the gradient in another shape (training)
	slotDW              // dense per-step weight-gradient panel (training)
	slotMask            // dropout mask, once per pass (training)
	slotArg             // maxpool argmax indices, per step (training)
	slotDims            // pool input dims, per pass (training)
	slotG2B             // conv gradient de-interleave panel (training)
	slotDCols           // conv column-gradient panel (training)
	slotGradStep        // per-step input-gradient copy (network-level)
	slotGradSum         // summed input gradient (network-level)
	slotLossGrad        // dL/dlogits buffer (network-level)
	slotIdx             // nonzero-index scratch for col-skip GEMMs
	slotCount           // number of slots; must stay <= trainSlotStride
)

// netLayer is the pseudo layer index for network-level buffers.
const netLayer = -1

type scratchEntry struct {
	t *tensor.Tensor
	// state entries are zeroed at the start of every pass (begin).
	state bool
	// view entries borrow caller data; Release drops the reference.
	view bool
	// gen is the pass generation that last refreshed a once-per-pass
	// entry (effective/transposed weights).
	gen uint64
}

// Scratch is a per-network arena of reusable inference buffers.
type Scratch struct {
	m   map[slotKey]*scratchEntry
	gen uint64
}

func newScratch() *Scratch {
	return &Scratch{m: make(map[slotKey]*scratchEntry)} //axsnn:allow-alloc builds the arena once; recycled via the free list thereafter
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
// Reuse is capacity-based: the buffer reallocates only when n exceeds
// the largest size the slot has ever held and shrinks by reslicing —
// so a caller whose batch width varies pass to pass (a streaming
// pipeline's last round classifies whatever windows remain: 4, 4, 1, …)
// settles at the high-water size and then never allocates again.
func (s *Scratch) sized(layer, slot, n int) *scratchEntry {
	e := s.entry(layer, slot)
	switch {
	case e.t == nil || cap(e.t.Data) < n:
		e.t = &tensor.Tensor{Data: make([]float32, n)} //axsnn:allow-alloc grows only past the slot's high-water capacity (a larger shape or batch); smaller sizes reslice
	case len(e.t.Data) != n:
		// Reslicing can expose stale values a larger pass left beyond
		// the previous length. Working buffers are overwritten by
		// contract (see buf1..4); state buffers must open the pass at
		// zero, and begin() only zeroed the previous length.
		e.t.Data = e.t.Data[:n]
		if e.state {
			e.t.Zero()
		}
	}
	return e
}

// setShape1..4 reshape a tensor header in place, only allocating when
// the rank changes (which a given slot does at most once).
func setShape1(t *tensor.Tensor, a int) {
	if len(t.Shape) != 1 {
		t.Shape = make([]int, 1)
	}
	t.Shape[0] = a
}

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

// buf1..buf4 return a reusable buffer of the given shape. Contents are
// unspecified; callers overwrite every element.
func (s *Scratch) buf1(layer, slot, a int) *tensor.Tensor {
	e := s.sized(layer, slot, a)
	setShape1(e.t, a)
	return e.t
}

func (s *Scratch) buf2(layer, slot, a, b int) *tensor.Tensor {
	e := s.sized(layer, slot, a*b)
	setShape2(e.t, a, b)
	return e.t
}

func (s *Scratch) buf3(layer, slot, a, b, c int) *tensor.Tensor {
	e := s.sized(layer, slot, a*b*c)
	setShape3(e.t, a, b, c)
	return e.t
}

func (s *Scratch) buf4(layer, slot, a, b, c, d int) *tensor.Tensor {
	e := s.sized(layer, slot, a*b*c*d)
	setShape4(e.t, a, b, c, d)
	return e.t
}

// bufShape is buf for an existing shape slice (e.g. mirroring an input).
func (s *Scratch) bufShape(layer, slot int, shape []int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	e := s.sized(layer, slot, n)
	t := e.t
	if len(t.Shape) != len(shape) {
		t.Shape = make([]int, len(shape)) //axsnn:allow-alloc rank changes at most once per slot
	}
	copy(t.Shape, shape)
	return t
}

// stateBufShape is bufShape for a buffer that must persist across the
// steps of one pass and read as zero at the start of every pass (the
// LIF membrane).
func (s *Scratch) stateBufShape(layer, slot int, shape []int) *tensor.Tensor {
	s.entry(layer, slot).state = true
	return s.bufShape(layer, slot, shape)
}

// once returns a once-per-pass buffer plus whether the caller must
// (re)fill it this pass — the weight-panel cache (mask application,
// transposition) that the allocating path re-derived after every Reset.
func (s *Scratch) once2(layer, slot, a, b int) (*tensor.Tensor, bool) {
	t := s.buf2(layer, slot, a, b)
	e := s.entry(layer, slot)
	fresh := e.gen != s.gen
	e.gen = s.gen
	return t, fresh
}

// onceShape is once2 for an arbitrary shape. The training arena also
// uses the freshness bit for per-pass state whose first use must see it
// uninitialized (the LIF backward carry, the dropout mask).
func (s *Scratch) onceShape(layer, slot int, shape []int) (*tensor.Tensor, bool) {
	t := s.bufShape(layer, slot, shape)
	e := s.entry(layer, slot)
	fresh := e.gen != s.gen
	e.gen = s.gen
	return t, fresh
}

// view1..3 return a cached tensor header wrapping caller data — the
// allocation-free Reshape/FromSlice. The header is reused, so a view is
// only valid until the slot's next use.
func (s *Scratch) viewEntry(layer, slot int, data []float32) *scratchEntry {
	e := s.entry(layer, slot)
	if e.t == nil {
		e.t = &tensor.Tensor{} //axsnn:allow-alloc one view header per slot, created on first use
	}
	e.view = true
	e.t.Data = data
	return e
}

func (s *Scratch) view1(layer, slot int, data []float32, a int) *tensor.Tensor {
	e := s.viewEntry(layer, slot, data)
	setShape1(e.t, a)
	return e.t
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

// viewShape is view1..3 for an arbitrary shape slice.
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

// arenaLayer is implemented by every built-in layer: an inference-mode
// forward (train=false semantics) that draws all working memory from the
// arena. li is the layer's position (the buffer key). batch distinguishes
// the two data layouts exactly like Forward vs ForwardBatch do: 0 means
// per-sample tensors (no batch axis); >= 1 means batched tensors whose
// leading axis holds batch samples.
type arenaLayer interface {
	forwardArena(x *tensor.Tensor, s *Scratch, li, batch int) *tensor.Tensor
}

// AcquireScratch returns an inference arena for this network, recycled
// from the network's free list when one is parked there. Pair with
// Release. Not safe for concurrent use — concurrent evaluation runs on
// CloneArchitecture clones, each owning its arenas.
func (n *Network) AcquireScratch() *Scratch {
	if k := len(n.scratchFree); k > 0 {
		s := n.scratchFree[k-1]
		n.scratchFree = n.scratchFree[:k-1]
		return s
	}
	return newScratch()
}

// Release parks a scratch arena for reuse by the next AcquireScratch.
func (n *Network) Release(s *Scratch) {
	if s == nil {
		return
	}
	s.release()
	n.scratchFree = append(n.scratchFree, s) //axsnn:allow-alloc free list grows to the high-water mark of live arenas
}

// arenaCapable reports whether every layer supports the arena path,
// caching the layer slice on first use.
//
//axsnn:allow-alloc caches the arena layer slice; runs once per network
func (n *Network) arenaCapable() bool {
	if !n.arenaInit {
		n.arenaInit = true
		ls := make([]arenaLayer, 0, len(n.Layers))
		for _, l := range n.Layers {
			al, ok := l.(arenaLayer)
			if !ok {
				return false
			}
			ls = append(ls, al)
		}
		n.arenaLs = ls
	}
	return n.arenaLs != nil
}

// forwardScratch runs a full inference pass against the arena and
// returns the accumulated logits — which live in the arena and are only
// valid until its next pass. batch is 0 for per-sample frames.
func (n *Network) forwardScratch(frames []*tensor.Tensor, s *Scratch, batch int) *tensor.Tensor {
	if len(frames) == 0 {
		panic("snn: Forward with no input frames")
	}
	if !n.arenaCapable() {
		panic("snn: network has non-arena layers; use Forward")
	}
	s.begin()
	var logits *tensor.Tensor
	for t := 0; t < n.Cfg.Steps; t++ {
		x := frames[min(t, len(frames)-1)]
		for li, l := range n.arenaLs {
			x = l.forwardArena(x, s, li, batch)
		}
		if logits == nil {
			logits = s.bufShape(netLayer, slotLogits, x.Shape)
			logits.Zero()
		}
		logits.Add(x)
	}
	return logits
}

// predictBatchScratch stacks samples step by step into one reused frame
// buffer (instead of materializing all Steps stacked tensors like
// StackFrames) and writes the per-sample argmax classes into out.
func (n *Network) predictBatchScratch(samples [][]*tensor.Tensor, s *Scratch, out []int) {
	if !n.arenaCapable() {
		panic("snn: network has non-arena layers; use ForwardSamples")
	}
	for _, fr := range samples {
		if len(fr) == 0 {
			panic("snn: PredictBatch sample with no input frames")
		}
	}
	s.begin()
	batch := len(samples)
	shape := samples[0][0].Shape
	per := samples[0][0].Len()
	var logits *tensor.Tensor
	for t := 0; t < n.Cfg.Steps; t++ {
		// The layers see the true batched shape (B, sample dims...).
		f := s.sized(netLayer, slotFrame, batch*per).t
		if len(f.Shape) != 1+len(shape) {
			f.Shape = make([]int, 1+len(shape)) //axsnn:allow-alloc rank changes at most once per slot
		}
		f.Shape[0] = batch
		copy(f.Shape[1:], shape)
		for b, fr := range samples {
			src := fr[min(t, len(fr)-1)]
			if src.Len() != per {
				panic("snn: PredictBatch samples disagree on frame size")
			}
			copy(f.Data[b*per:(b+1)*per], src.Data)
		}
		x := f
		for li, l := range n.arenaLs {
			x = l.forwardArena(x, s, li, batch)
		}
		if logits == nil {
			logits = s.bufShape(netLayer, slotLogits, x.Shape)
			logits.Zero()
		}
		logits.Add(x)
	}
	classes := logits.Len() / batch
	for b := range out {
		row := logits.Data[b*classes : (b+1)*classes]
		best, bi := row[0], 0
		for j, v := range row {
			if v > best {
				best, bi = v, j
			}
		}
		out[b] = bi
	}
}
