package dataset

import (
	"math"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// SynthConfig controls the procedural digit generator.
//
// The generator substitutes for MNIST: each digit class is a fixed
// stroke skeleton in the unit square, rendered with a per-sample
// random affine transform (rotation, scale, translation), random stroke
// thickness and additive sensor noise. The result is a 10-class image task
// with intra-class variation, which is all the paper's experiments require
// of the static dataset.
type SynthConfig struct {
	H, W      int     // image size (default 16×16)
	Noise     float64 // std-dev of additive Gaussian pixel noise
	MaxRotate float64 // max |rotation| in radians
	MaxShift  float64 // max |translation| as fraction of image
	MinScale  float64 // min per-sample scale factor
	MaxScale  float64 // max per-sample scale factor
	Thickness float64 // stroke radius as a fraction of image size
}

// DefaultSynthConfig returns the generator settings used by the
// experiment harness.
func DefaultSynthConfig() SynthConfig {
	return SynthConfig{
		H: 16, W: 16,
		Noise:     0.03,
		MaxRotate: 0.18,
		MaxShift:  0.08,
		MinScale:  0.85,
		MaxScale:  1.05,
		Thickness: 0.055,
	}
}

// point is a 2-D coordinate in the unit square (x right, y down).
type point struct{ x, y float64 }

// digitStrokes defines each digit 0-9 as a set of polylines in the unit
// square. The skeletons are deliberately simple (seven-segment-like with
// curves approximated by short polylines): class identity comes from
// topology, intra-class variation from the affine jitter.
var digitStrokes = [10][][]point{
	// 0: closed oval
	{ellipse(0.5, 0.5, 0.28, 0.38, 16)},
	// 1: vertical bar with a small flag
	{{{0.38, 0.28}, {0.55, 0.12}, {0.55, 0.88}}},
	// 2: top arc, diagonal, bottom bar
	{append(arc(0.5, 0.3, 0.26, math.Pi, 2.2*math.Pi, 10), point{0.24, 0.88}, point{0.78, 0.88})},
	// 3: two right-facing arcs
	{arc(0.45, 0.3, 0.24, 1.05*math.Pi, 2.45*math.Pi, 10),
		arc(0.45, 0.68, 0.26, 1.55*math.Pi, 2.95*math.Pi, 10)},
	// 4: diagonal, horizontal, vertical
	{{{0.62, 0.12}, {0.25, 0.62}, {0.8, 0.62}}, {{0.62, 0.12}, {0.62, 0.88}}},
	// 5: top bar, left stem, bottom bowl
	{{{0.75, 0.14}, {0.3, 0.14}, {0.28, 0.5}},
		arc(0.48, 0.66, 0.24, 1.3*math.Pi, 2.8*math.Pi, 10)},
	// 6: left curve closing into a lower loop
	{arc(0.52, 0.3, 0.26, 0.75*math.Pi, 1.35*math.Pi, 6),
		ellipse(0.5, 0.66, 0.22, 0.2, 12)},
	// 7: top bar and diagonal
	{{{0.22, 0.14}, {0.78, 0.14}, {0.42, 0.88}}},
	// 8: two stacked loops
	{ellipse(0.5, 0.3, 0.2, 0.17, 12), ellipse(0.5, 0.68, 0.24, 0.2, 12)},
	// 9: upper loop with a tail
	{ellipse(0.5, 0.32, 0.22, 0.2, 12),
		arc(0.48, 0.34, 0.26, -0.1*math.Pi, 0.45*math.Pi, 6)},
}

// ellipse approximates an axis-aligned ellipse as a closed polyline.
func ellipse(cx, cy, rx, ry float64, n int) []point {
	pts := make([]point, 0, n+1)
	for i := 0; i <= n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		pts = append(pts, point{cx + rx*math.Cos(a), cy + ry*math.Sin(a)})
	}
	return pts
}

// arc approximates a circular arc from a0 to a1 (radians) as a polyline.
func arc(cx, cy, r, a0, a1 float64, n int) []point {
	pts := make([]point, 0, n+1)
	for i := 0; i <= n; i++ {
		a := a0 + (a1-a0)*float64(i)/float64(n)
		pts = append(pts, point{cx + r*math.Cos(a), cy + r*math.Sin(a)})
	}
	return pts
}

// RenderDigit rasterizes one sample of class digit with per-sample jitter
// drawn from r. The returned image is (1,H,W) with intensities in [0,1].
func RenderDigit(digit int, cfg SynthConfig, r *rng.RNG) *tensor.Tensor {
	img := tensor.New(1, cfg.H, cfg.W)

	// Per-sample affine transform about the image centre.
	rot := (2*r.Float64() - 1) * cfg.MaxRotate
	scale := cfg.MinScale + r.Float64()*(cfg.MaxScale-cfg.MinScale)
	dx := (2*r.Float64() - 1) * cfg.MaxShift
	dy := (2*r.Float64() - 1) * cfg.MaxShift
	sin, cos := math.Sincos(rot)
	xform := func(p point) point {
		x, y := p.x-0.5, p.y-0.5
		x, y = x*cos-y*sin, x*sin+y*cos
		return point{(x*scale + 0.5 + dx), (y*scale + 0.5 + dy)}
	}

	thick := cfg.Thickness * (0.8 + 0.4*r.Float64()) * float64(cfg.W)
	for _, stroke := range digitStrokes[digit] {
		for i := 0; i+1 < len(stroke); i++ {
			a, b := xform(stroke[i]), xform(stroke[i+1])
			splatSegment(img, a, b, thick, cfg)
		}
	}

	if cfg.Noise > 0 {
		for i, v := range img.Data {
			nv := float64(v) + r.NormFloat64()*cfg.Noise
			img.Data[i] = float32(math.Min(1, math.Max(0, nv)))
		}
	}
	return img
}

// splatSegment draws an anti-aliased capsule from a to b with radius thick
// (in pixels) by accumulating a soft falloff into the image.
func splatSegment(img *tensor.Tensor, a, b point, thick float64, cfg SynthConfig) {
	ax, ay := a.x*float64(cfg.W), a.y*float64(cfg.H)
	bx, by := b.x*float64(cfg.W), b.y*float64(cfg.H)
	minX := int(math.Floor(math.Min(ax, bx) - thick - 1))
	maxX := int(math.Ceil(math.Max(ax, bx) + thick + 1))
	minY := int(math.Floor(math.Min(ay, by) - thick - 1))
	maxY := int(math.Ceil(math.Max(ay, by) + thick + 1))
	if minX < 0 {
		minX = 0
	}
	if minY < 0 {
		minY = 0
	}
	if maxX >= cfg.W {
		maxX = cfg.W - 1
	}
	if maxY >= cfg.H {
		maxY = cfg.H - 1
	}
	dx, dy := bx-ax, by-ay
	segLen2 := dx*dx + dy*dy
	for y := minY; y <= maxY; y++ {
		for x := minX; x <= maxX; x++ {
			px, py := float64(x)+0.5, float64(y)+0.5
			// distance from pixel centre to segment
			t := 0.0
			if segLen2 > 0 {
				t = ((px-ax)*dx + (py-ay)*dy) / segLen2
				t = math.Min(1, math.Max(0, t))
			}
			cx, cy := ax+t*dx, ay+t*dy
			d := math.Hypot(px-cx, py-cy)
			// Soft edge one pixel wide around the stroke radius.
			v := 1 - (d - thick)
			if v <= 0 {
				continue
			}
			if v > 1 {
				v = 1
			}
			idx := y*cfg.W + x
			if float32(v) > img.Data[idx] {
				img.Data[idx] = float32(v)
			}
		}
	}
}

// GenerateSynth produces a synthetic digit dataset of n samples with a
// balanced class distribution, deterministically from seed.
func GenerateSynth(n int, cfg SynthConfig, seed uint64) *Set {
	r := rng.New(seed)
	set := &Set{Classes: 10, H: cfg.H, W: cfg.W, Samples: make([]Sample, n)}
	for i := 0; i < n; i++ {
		label := i % 10
		set.Samples[i] = Sample{Image: RenderDigit(label, cfg, r), Label: label}
	}
	// Shuffle so batches are class-mixed.
	r.Shuffle(n, func(i, j int) {
		set.Samples[i], set.Samples[j] = set.Samples[j], set.Samples[i]
	})
	return set
}
