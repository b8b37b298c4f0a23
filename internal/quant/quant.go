// Package quant implements the precision scales used by the paper's
// precision-scaling defense: FP32 (identity), FP16 (IEEE-754 binary16
// round-trip) and INT8 (symmetric per-tensor quantization).
//
// Precision scaling in the paper means running the AxSNN with weights
// stored at reduced precision; here that is modelled by quantizing weights
// to the target format and dequantizing back to float32 for compute
// ("fake quantization"), which reproduces the numerical effect while
// keeping one compute path.
package quant

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/tensor"
)

// Scale identifies a precision scale.
type Scale int

const (
	// FP32 is full single precision (identity transform).
	FP32 Scale = iota
	// FP16 is IEEE-754 binary16 with round-to-nearest-even.
	FP16
	// INT8 is symmetric signed 8-bit per-tensor quantization.
	INT8
)

// Scales lists the precision scales evaluated by the paper (Figs. 4-6).
var Scales = []Scale{FP32, FP16, INT8}

// String returns the paper's spelling of the scale.
func (s Scale) String() string {
	switch s {
	case FP32:
		return "FP32"
	case FP16:
		return "FP16"
	case INT8:
		return "INT8"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// ParseScale converts a string such as "fp16" to a Scale. Matching is
// case-insensitive, so "FP16", "fp16" and "Fp16" all parse.
func ParseScale(s string) (Scale, error) {
	switch strings.ToUpper(s) {
	case "FP32":
		return FP32, nil
	case "FP16":
		return FP16, nil
	case "INT8":
		return INT8, nil
	}
	return FP32, fmt.Errorf("quant: unknown precision scale %q", s)
}

// Bits returns the storage width of the scale in bits.
func (s Scale) Bits() int {
	switch s {
	case FP16:
		return 16
	case INT8:
		return 8
	default:
		return 32
	}
}

// F32ToF16 converts a float32 to IEEE-754 binary16 bits with
// round-to-nearest-even, handling subnormals, infinities and NaN.
func F32ToF16(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23&0xff) - 127 + 15
	mant := b & 0x7fffff

	switch {
	case exp >= 0x1f: // overflow or Inf/NaN
		if int32(b>>23&0xff) == 0xff { // Inf or NaN
			if mant != 0 {
				return sign | 0x7e00 // quiet NaN
			}
			return sign | 0x7c00 // Inf
		}
		return sign | 0x7c00 // overflow -> Inf
	case exp <= 0: // subnormal or underflow to zero
		if exp < -10 {
			return sign // underflow
		}
		mant |= 0x800000 // implicit leading 1
		shift := uint32(14 - exp)
		half := mant >> shift
		// round to nearest even
		rem := mant & ((1 << shift) - 1)
		halfway := uint32(1) << (shift - 1)
		if rem > halfway || (rem == halfway && half&1 == 1) {
			half++
		}
		return sign | uint16(half)
	default:
		half := uint16(exp)<<10 | uint16(mant>>13)
		rem := mant & 0x1fff
		if rem > 0x1000 || (rem == 0x1000 && half&1 == 1) {
			half++ // may carry into the exponent, which is correct
		}
		return sign | half
	}
}

// F16ToF32 converts IEEE-754 binary16 bits to float32.
func F16ToF32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	mant := uint32(h & 0x3ff)
	switch exp {
	case 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// subnormal: normalize
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3ff
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case 0x1f:
		if mant == 0 {
			return math.Float32frombits(sign | 0x7f800000)
		}
		return math.Float32frombits(sign | 0x7fc00000 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp-15+127)<<23 | mant<<13)
	}
}

// RoundF16 rounds a float32 through binary16 and back.
func RoundF16(f float32) float32 { return F16ToF32(F32ToF16(f)) }

// Int8Params holds the symmetric quantization parameters of a tensor.
type Int8Params struct {
	// Step is the quantization step: real = Step * int8code.
	Step float32
}

// Int8ParamsFor computes the symmetric per-tensor step covering max|x|.
func Int8ParamsFor(t *tensor.Tensor) Int8Params {
	m := float32(t.LInfNorm())
	if m == 0 {
		return Int8Params{Step: 1}
	}
	return Int8Params{Step: m / 127}
}

// quantCode is the single rounding implementation of the package:
// round-to-nearest with symmetric clamping at ±127. Every int8
// quantizer (per-tensor, per-channel, fake-quantization) routes
// through it so their numerics cannot drift apart.
func quantCode(v, step float32) int8 {
	q := math.Round(float64(v / step))
	if q > 127 {
		q = 127
	} else if q < -127 {
		q = -127
	}
	return int8(q)
}

// QuantizeInt8 returns the int8 codes of t under p.
func QuantizeInt8(t *tensor.Tensor, p Int8Params) []int8 {
	out := make([]int8, t.Len())
	for i, v := range t.Data {
		out[i] = quantCode(v, p.Step)
	}
	return out
}

// DequantizeInt8 reconstructs float32 values from int8 codes.
func DequantizeInt8(codes []int8, p Int8Params, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i, c := range codes {
		t.Data[i] = float32(c) * p.Step
	}
	return t
}

// Apply fake-quantizes t in place according to the scale and returns t.
func Apply(t *tensor.Tensor, s Scale) *tensor.Tensor {
	switch s {
	case FP32:
		return t
	case FP16:
		for i, v := range t.Data {
			t.Data[i] = RoundF16(v)
		}
		return t
	case INT8:
		p := Int8ParamsFor(t)
		for i, v := range t.Data {
			t.Data[i] = float32(quantCode(v, p.Step)) * p.Step
		}
		return t
	default:
		panic(fmt.Sprintf("quant: unknown scale %v", s))
	}
}

// Applied returns a fake-quantized copy of t, leaving t untouched.
func Applied(t *tensor.Tensor, s Scale) *tensor.Tensor {
	return Apply(t.Clone(), s)
}

// Int8Panel is a per-channel quantized weight matrix: Rows×Cols int8
// codes with one symmetric step per row (per output channel). It is the
// storage format the int8 GEMM kernels consume directly — built once at
// load or hot-swap time, shared read-only between network clones.
type Int8Panel struct {
	Rows, Cols int
	Codes      []int8    // Rows×Cols, row-major
	Steps      []float32 // one step per row: real = Steps[r] * code
}

// QuantizePerChannel quantizes a (rows × cols) weight matrix to an
// int8 panel with one symmetric step per row (per output channel), the
// finer-grained scheme deployed quantizers prefer: a channel with small
// weights keeps its resolution instead of inheriting the whole tensor's
// range. An all-zero row gets step 1 (all codes 0), matching
// Int8ParamsFor's convention. It errors when rows does not divide the
// tensor — a silent fallback would quietly change numerics.
func QuantizePerChannel(t *tensor.Tensor, rows int) (*Int8Panel, error) {
	if rows <= 0 || t.Len()%rows != 0 {
		return nil, fmt.Errorf("quant: per-channel rows %d does not divide tensor of %d elements", rows, t.Len())
	}
	cols := t.Len() / rows
	p := &Int8Panel{
		Rows:  rows,
		Cols:  cols,
		Codes: make([]int8, t.Len()),
		Steps: make([]float32, rows),
	}
	for r := 0; r < rows; r++ {
		row := t.Data[r*cols : (r+1)*cols]
		m := float32(0)
		for _, v := range row {
			a := v
			if a < 0 {
				a = -a
			}
			if a > m {
				m = a
			}
		}
		step := float32(1)
		if m != 0 {
			step = m / 127
		}
		p.Steps[r] = step
		codes := p.Codes[r*cols : (r+1)*cols]
		for i, v := range row {
			codes[i] = quantCode(v, step)
		}
	}
	return p, nil
}

// TransposedCodes returns the panel's codes as a Cols×Rows row-major
// matrix: row c holds column c of every output channel, the layout the
// int8 conv scatter reads (tensor.ConvScatterInt8Into).
func (p *Int8Panel) TransposedCodes() []int8 {
	out := make([]int8, len(p.Codes))
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			out[c*p.Rows+r] = p.Codes[r*p.Cols+c]
		}
	}
	return out
}

// ApplyPerChannel fake-quantizes a (rows × cols) weight matrix to INT8
// with one symmetric step per row, in place, by round-tripping through
// QuantizePerChannel's codes — the fake-quantized values are exactly
// what the int8 GEMM kernels compute with. FP16 and FP32 have no
// per-tensor state, so they fall back to Apply. A rows value that does
// not divide the tensor is an error, never a silent per-tensor
// fallback.
func ApplyPerChannel(t *tensor.Tensor, s Scale, rows int) (*tensor.Tensor, error) {
	if s != INT8 {
		return Apply(t, s), nil
	}
	p, err := QuantizePerChannel(t, rows)
	if err != nil {
		return nil, err
	}
	for r := 0; r < p.Rows; r++ {
		step := p.Steps[r]
		row := t.Data[r*p.Cols : (r+1)*p.Cols]
		codes := p.Codes[r*p.Cols : (r+1)*p.Cols]
		for i := range row {
			row[i] = float32(codes[i]) * step
		}
	}
	return t, nil
}

// MSE returns the mean squared quantization error between a and b.
func MSE(a, b *tensor.Tensor) float64 {
	if a.Len() != b.Len() {
		panic("quant: MSE length mismatch")
	}
	if a.Len() == 0 {
		return 0
	}
	s := 0.0
	for i := range a.Data {
		d := float64(a.Data[i]) - float64(b.Data[i])
		s += d * d
	}
	return s / float64(a.Len())
}

// QuantizeStep rounds every element of t to multiples of step (used by the
// AQF defense to quantize event timestamps; step 0 is the identity).
func QuantizeStep(t *tensor.Tensor, step float32) *tensor.Tensor {
	if step <= 0 {
		return t
	}
	for i, v := range t.Data {
		t.Data[i] = float32(math.Round(float64(v/step))) * step
	}
	return t
}
