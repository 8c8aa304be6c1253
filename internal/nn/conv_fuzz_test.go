package nn

import (
	"math"
	"testing"

	"haccs/internal/stats"
	"haccs/internal/tensor"
)

// fuzzValues is the alphabet the fuzzer writes inputs, weights and
// gradients in: ordinary values, signed zeros, subnormals, magnitudes
// whose products overflow, infinities and a NaN.
var fuzzValues = [16]float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.25, 3, -7,
	1e-3, 5e-324, -2.2e-310, 1e300, -1e300, math.Inf(1), math.Inf(-1), math.NaN(),
}

// convCase decodes a fuzz input: eight bytes of geometry — channels
// 1–4, height and width 1–16, kernel 1–5, stride 1–2, padding 0–2,
// filters 1–9, batch 1–4 — then the value bytes. ok is false when the
// kernel does not fit the padded image.
func convCase(data []byte) (g tensor.ConvGeom, filters, batch int, values []byte, ok bool) {
	if len(data) < 8 {
		return g, 0, 0, nil, false
	}
	g = tensor.ConvGeom{
		Channels: 1 + int(data[0])%4,
		Height:   1 + int(data[1])%16,
		Width:    1 + int(data[2])%16,
		Kernel:   1 + int(data[3])%5,
		Stride:   1 + int(data[4])%2,
		Pad:      int(data[5]) % 3,
	}
	ok = g.Height+2*g.Pad >= g.Kernel && g.Width+2*g.Pad >= g.Kernel
	return g, 1 + int(data[6])%9, 1 + int(data[7])%4, data[8:], ok
}

// fillFuzz writes dst from the value bytes, cycling through them from
// position at; with no value bytes it writes fillPattern's values.
func fillFuzz(dst []float64, values []byte, at int) {
	if len(values) == 0 {
		fillPattern(dst, uint64(at))
		return
	}
	for i := range dst {
		dst[i] = fuzzValues[values[(at+i)%len(values)]%16]
	}
}

// FuzzConv2DMatchesRef drives Conv2D and Conv2DRef with one small
// geometry and one set of values — inputs, weights, biases and output
// gradients, non-finite ones included — and requires bit-identical
// forward outputs, input gradients, dW and dB (convBitEqual).
func FuzzConv2DMatchesRef(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, filters, batch, values, ok := convCase(data)
		if !ok {
			return
		}
		direct := NewConv2D(g, filters, stats.NewRNG(1))
		ref := NewConv2DRef(g, filters, stats.NewRNG(1))
		fillFuzz(direct.W.Data, values, 0)
		fillFuzz(direct.B.Data, values, 1)
		copy(ref.W.Data, direct.W.Data)
		copy(ref.B.Data, direct.B.Data)
		x := tensor.New(batch, direct.InSize())
		fillFuzz(x.Data, values, 2)
		gradOut := tensor.New(batch, direct.OutSize())
		fillFuzz(gradOut.Data, values, 3)
		matchRef(t, direct, ref, x, gradOut)
	})
}
