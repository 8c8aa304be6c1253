package tensor

import (
	"math"
	"testing"
)

// fill writes a deterministic, sign-varying pattern so kernel identity
// tests exercise non-trivial values without a seed dependency.
func fill(data []float64, salt uint64) {
	s := salt*2654435761 + 12345
	for i := range data {
		s = s*6364136223846793005 + 1442695040888963407
		data[i] = float64(int64(s>>33)%2000-1000) / 997
	}
}

// mustBits requires got and want to have the same IEEE-754 bits, so ±0
// and NaN positions count too.
func mustBits(t *testing.T, got, want []float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func mustExact(t *testing.T, got, want []float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %v, want %v (must be bit-exact)", what, i, got[i], want[i])
		}
	}
}

func TestScratchReuseAndGrowth(t *testing.T) {
	var s Scratch
	a := s.Dense2D("x", 4, 8)
	a.Data[0] = 42
	b := s.Dense2D("x", 2, 8) // shrink: same backing array, same header
	if b != a {
		t.Fatalf("Dense2D did not reuse the *Dense header on shrink")
	}
	if b.Rows() != 2 || b.Cols() != 8 || len(b.Data) != 16 {
		t.Fatalf("Dense2D shrink shape = %v len %d", b.Shape, len(b.Data))
	}
	if b.Data[0] != 42 {
		t.Fatalf("Dense2D must not zero reused storage")
	}
	c := s.Dense2D("x", 8, 8) // grow past capacity: fresh storage
	if c != a {
		t.Fatalf("Dense2D should keep reusing the header on growth")
	}
	if len(c.Data) != 64 {
		t.Fatalf("Dense2D grow len = %d", len(c.Data))
	}
	if s.Dense2D("y", 4, 8) == a {
		t.Fatalf("distinct keys must get distinct tensors")
	}

	f := s.Floats("buf", 10)
	f[3] = 7
	f2 := s.Floats("buf", 5)
	if &f2[0] != &f[0] || len(f2) != 5 || f2[3] != 7 {
		t.Fatalf("Floats must reuse backing storage without zeroing")
	}
	ints := s.Ints("idx", 6)
	ints[0] = 9
	if got := s.Ints("idx", 6); &got[0] != &ints[0] || got[0] != 9 {
		t.Fatalf("Ints must reuse backing storage without zeroing")
	}
}

// convGeoms are the geometries the identity tests sweep: valid and
// padded, unit and non-unit stride, single- and multi-channel.
var convGeoms = []ConvGeom{
	{Channels: 1, Height: 5, Width: 5, Kernel: 3, Stride: 1, Pad: 0},
	{Channels: 3, Height: 8, Width: 8, Kernel: 3, Stride: 1, Pad: 1},
	{Channels: 2, Height: 9, Width: 7, Kernel: 3, Stride: 2, Pad: 1},
	{Channels: 3, Height: 12, Width: 12, Kernel: 5, Stride: 1, Pad: 2},
	{Channels: 1, Height: 6, Width: 6, Kernel: 2, Stride: 2, Pad: 0},
}

// padBatch returns x's images zero-padded for g (x itself when g has
// no padding), the input the direct kernels read.
func padBatch(x *Dense, g ConvGeom) *Dense {
	if g.Pad == 0 {
		return x
	}
	p := g.Padded()
	xp := New(x.Rows(), p.imageSize())
	PadInto(xp, x, g)
	return xp
}

// TestIm2ColBatchedMatchesPerImage pins the direct forward, which reads
// each image of a batch in place instead of unrolling it, to what the
// unroll gave: per image, MatMul(w, Im2Col(x_b)) plus the bias, bit for
// bit. Padded geometries go through PadInto; the filter counts fill one
// panel of four, part of one, and one and a half.
func TestIm2ColBatchedMatchesPerImage(t *testing.T) {
	const batch = 3
	for gi, g := range convGeoms {
		outHW := g.OutHeight() * g.OutWidth()
		for _, f := range []int{1, 4, 6} {
			x := New(batch, g.imageSize())
			fill(x.Data, uint64(g.Kernel*100+g.Pad*10+g.Stride))
			w := New(f, g.ColRows())
			fill(w.Data, uint64(gi+f))
			bias := make([]float64, f)
			fill(bias, uint64(f))
			y := New(batch, f*outHW)
			fill(y.Data, 99) // pre-soil: every element must be overwritten
			var s Scratch
			ConvForwardInto(y, padBatch(x, g), w, bias, g.Padded(), &s)
			for b := 0; b < batch; b++ {
				ref := MatMul(w, Im2Col(x.Row(b), g))
				for i := 0; i < f; i++ {
					for j := range ref.Row(i) {
						ref.Row(i)[j] += bias[i]
					}
				}
				mustBits(t, y.Row(b), ref.Data, "direct forward")
			}
		}
	}
}

func TestIm2ColIntoMatchesIm2Col(t *testing.T) {
	for _, g := range convGeoms {
		img := make([]float64, g.Channels*g.Height*g.Width)
		fill(img, 7)
		want := Im2Col(img, g)
		got := New(g.ColRows(), g.OutHeight()*g.OutWidth())
		fill(got.Data, 3)
		Im2ColInto(got, img, g)
		mustExact(t, got.Data, want.Data, "Im2ColInto")
	}
}

// TestCol2ImBatchedMatchesPerImage pins the direct input gradient to
// the per-image reference, Col2Im(MatMulTransA(w, gradOut_b)), bit for
// bit: padded and strided geometries, filter counts on and off a
// multiple of four.
func TestCol2ImBatchedMatchesPerImage(t *testing.T) {
	const batch = 3
	for gi, g := range convGeoms {
		outHW := g.OutHeight() * g.OutWidth()
		for _, f := range []int{1, 4, 6} {
			w := New(f, g.ColRows())
			fill(w.Data, uint64(gi+f))
			gradOut := New(batch, f*outHW)
			fill(gradOut.Data, uint64(g.Kernel))
			dx := New(batch, g.imageSize())
			fill(dx.Data, 5) // must be fully overwritten
			var s Scratch
			ConvInputGradInto(dx, gradOut, w, g, &s)
			for b := 0; b < batch; b++ {
				ref := Col2Im(MatMulTransA(w, FromSlice(gradOut.Row(b), f, outHW)), g)
				mustBits(t, dx.Row(b), ref, "direct input gradient")
			}
		}
	}
}

func TestCol2ImIntoMatchesCol2Im(t *testing.T) {
	g := ConvGeom{Channels: 2, Height: 7, Width: 7, Kernel: 3, Stride: 1, Pad: 1}
	cols := New(g.ColRows(), g.OutHeight()*g.OutWidth())
	fill(cols.Data, 11)
	want := Col2Im(cols, g)
	got := make([]float64, g.Channels*g.Height*g.Width)
	fill(got, 13)
	Col2ImInto(got, cols, g)
	mustExact(t, got, want, "Col2ImInto")
}

func TestMatMulTransBIntoMatchesAlloc(t *testing.T) {
	a, b := New(9, 31), New(13, 31)
	fill(a.Data, 1)
	fill(b.Data, 2)
	want := MatMulTransB(a, b)
	got := New(9, 13)
	fill(got.Data, 3)
	MatMulTransBInto(got, a, b)
	mustExact(t, got.Data, want.Data, "MatMulTransBInto")
}

func TestMatMulTransAIntoMatchesAlloc(t *testing.T) {
	a, b := New(17, 9), New(17, 21)
	fill(a.Data, 4)
	fill(b.Data, 5)
	want := MatMulTransA(a, b)
	got := New(9, 21)
	fill(got.Data, 6)
	MatMulTransAInto(got, a, b)
	mustExact(t, got.Data, want.Data, "MatMulTransAInto")
}

// gradCases are the weight-gradient shapes: sim_tta's two layers, C·K·K
// and filter counts that do not fill the kernel's 4 × 4 blocks, strided
// and padded geometries, and an all-zero gradient.
var gradCases = []struct {
	g         ConvGeom
	f, batch  int
	zeroGrads bool
}{
	{ConvGeom{Channels: 3, Height: 16, Width: 16, Kernel: 5, Stride: 1}, 4, 4, false}, // sim_tta conv1
	{ConvGeom{Channels: 4, Height: 6, Width: 6, Kernel: 5, Stride: 1}, 8, 4, false},   // sim_tta conv2: outW 2
	{ConvGeom{Channels: 2, Height: 7, Width: 9, Kernel: 3, Stride: 1}, 5, 3, false},   // C·K·K = 18
	{ConvGeom{Channels: 1, Height: 5, Width: 5, Kernel: 3, Stride: 1}, 3, 2, false},   // F < 4
	{ConvGeom{Channels: 2, Height: 9, Width: 7, Kernel: 3, Stride: 2, Pad: 1}, 6, 3, false},
	{ConvGeom{Channels: 1, Height: 4, Width: 7, Kernel: 1, Stride: 1}, 2, 2, false}, // C·K·K = 1
	{ConvGeom{Channels: 3, Height: 8, Width: 8, Kernel: 3, Stride: 1, Pad: 2}, 7, 3, true},
}

// gradInputs builds a case's images and output gradient.
func gradInputs(g ConvGeom, f, batch int, zeroGrads bool, salt uint64) (x, gradOut *Dense) {
	x = New(batch, g.imageSize())
	fill(x.Data, salt)
	gradOut = New(batch, f*g.OutHeight()*g.OutWidth())
	if !zeroGrads {
		fill(gradOut.Data, salt+1)
	}
	return x, gradOut
}

// TestAddMatMulTransBChunkedMatchesPerChunk checks the direct weight
// gradient against its defining decomposition, one chunk per image:
// MatMulTransB(gradOut_b, Im2Col(x_b)) added into dw in image order.
// Results must be bit-exact, onto a dw that already holds values.
func TestAddMatMulTransBChunkedMatchesPerChunk(t *testing.T) {
	for ci, tc := range gradCases {
		x, gradOut := gradInputs(tc.g, tc.f, tc.batch, tc.zeroGrads, uint64(ci))
		want := New(tc.f, tc.g.ColRows())
		fill(want.Data, 8) // both sides accumulate onto identical garbage
		got := want.Clone()
		outHW := tc.g.OutHeight() * tc.g.OutWidth()
		for b := 0; b < tc.batch; b++ {
			want.Add(MatMulTransB(FromSlice(gradOut.Row(b), tc.f, outHW), Im2Col(x.Row(b), tc.g)))
		}
		var s Scratch
		ConvWeightGradAdd(got, gradOut, padBatch(x, tc.g), tc.g.Padded(), &s)
		mustBits(t, got.Data, want.Data, "direct weight gradient")
	}
}

// TestGemmColumnBandedMatchesSerial runs a wide-and-short product, the
// shape a column split once served, and requires the bits of the plain
// three-loop product.
func TestGemmColumnBandedMatchesSerial(t *testing.T) {
	a, b := New(6, 80), New(80, 1024)
	fill(a.Data, 21)
	fill(b.Data, 22)
	got := New(6, 1024)
	MatMulInto(got, a, b)
	mustBits(t, got.Data, naiveMatMul(a, b).Data, "wide-and-short gemm")
}

// TestGemmRowBandedMatchesSerial does the same for a square product.
// Then zero weights meet NaN and ±Inf: a row's bits must not depend on
// whether it sits in a 4-row block or among the leftover rows. Rows 3–5
// of a 6-row product (row 3 in the block of rows 0–3) must equal the same
// rows computed as a 3-row product, for MatMulInto and MatMulTransAInto.
func TestGemmRowBandedMatchesSerial(t *testing.T) {
	a, b := New(128, 64), New(64, 128)
	fill(a.Data, 31)
	fill(b.Data, 32)
	got := New(128, 128)
	MatMulInto(got, a, b)
	mustBits(t, got.Data, naiveMatMul(a, b).Data, "square gemm")

	b = New(5, 9)
	fill(b.Data, 34)
	b.Set(2, 0, math.NaN())
	b.Set(2, 1, math.Inf(1))
	b.Set(2, 2, math.Inf(-1))

	a = New(6, 5)
	fill(a.Data, 33)
	a.Set(3, 2, 0) // in the 4-row block of the 6-row product, a leftover of the 3-row one
	a.Set(4, 2, 0)
	whole, tail := New(6, 9), New(3, 9)
	MatMulInto(whole, a, b)
	MatMulInto(tail, FromSlice(a.Data[3*5:], 3, 5), b)
	mustBits(t, tail.Data, whole.Data[3*9:], "gemm rows 3–5 with zero weights against NaN/Inf")
	if !math.IsNaN(whole.At(3, 0)) {
		t.Fatalf("0·NaN was skipped: out[3][0] = %v", whole.At(3, 0))
	}

	at := New(5, 6) // the output rows of aᵀ × b are columns of a
	fill(at.Data, 35)
	at.Set(2, 3, 0)
	at.Set(2, 4, 0)
	atTail := New(5, 3)
	for p := 0; p < 5; p++ {
		copy(atTail.Row(p), at.Row(p)[3:])
	}
	whole, tail = New(6, 9), New(3, 9)
	MatMulTransAInto(whole, at, b)
	MatMulTransAInto(tail, atTail, b)
	mustBits(t, tail.Data, whole.Data[3*9:], "transA rows 3–5 with zero weights against NaN/Inf")
	if !math.IsNaN(whole.At(3, 0)) {
		t.Fatalf("0·NaN was skipped: transA out[3][0] = %v", whole.At(3, 0))
	}
}

// naiveIm2Col is im2col from its definition, one element at a time:
// column b·outHW + oy·outW + ox of row (c·K+ky)·K+kx holds image b's
// pixel (c, oy·S+ky−P, ox·S+kx−P), or 0 in the padding.
func naiveIm2Col(x *Dense, g ConvGeom) *Dense {
	outH, outW := g.OutHeight(), g.OutWidth()
	batch := x.Rows()
	cols := New(g.ColRows(), batch*outH*outW)
	for r := 0; r < g.ColRows(); r++ {
		c, ky, kx := r/(g.Kernel*g.Kernel), (r/g.Kernel)%g.Kernel, r%g.Kernel
		for b := 0; b < batch; b++ {
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					iy, ix := oy*g.Stride+ky-g.Pad, ox*g.Stride+kx-g.Pad
					if iy < 0 || iy >= g.Height || ix < 0 || ix >= g.Width {
						continue
					}
					cols.Set(r, (b*outH+oy)*outW+ox, x.At(b, (c*g.Height+iy)*g.Width+ix))
				}
			}
		}
	}
	return cols
}

// TestIm2ColMatchesNaive pins im2col, whose stride-1 path moves whole
// spans, to the element-by-element definition on output widths that are
// and are not multiples of four.
func TestIm2ColMatchesNaive(t *testing.T) {
	geoms := append([]ConvGeom{
		{Channels: 3, Height: 16, Width: 16, Kernel: 5, Stride: 1}, // sim_tta conv1: spans of 12
		{Channels: 4, Height: 6, Width: 6, Kernel: 5, Stride: 1},   // sim_tta conv2: spans of 2
		{Channels: 2, Height: 9, Width: 11, Kernel: 3, Stride: 1},  // spans of 9
		{Channels: 1, Height: 4, Width: 7, Kernel: 1, Stride: 1},   // spans of 7
	}, convGeoms...)
	for gi, g := range geoms {
		const batch = 3
		x := New(batch, g.Channels*g.Height*g.Width)
		fill(x.Data, uint64(gi))
		outHW := g.OutHeight() * g.OutWidth()
		want := naiveIm2Col(x, g)
		got := New(g.ColRows(), outHW)
		for b := 0; b < batch; b++ {
			fill(got.Data, 77) // every element must be overwritten
			Im2ColInto(got, x.Row(b), g)
			for r := 0; r < g.ColRows(); r++ {
				mustExact(t, got.Row(r), want.Row(r)[b*outHW:(b+1)*outHW], "im2col")
			}
		}
	}
}

// TestAddMatMulTransBChunkedBandedMatchesSerial splits the batch. The
// weight gradient adds each image's partial sums in image order, so
// adding images [0, 2) and then [2, batch) in two calls must give the
// bits of one call over the whole batch.
func TestAddMatMulTransBChunkedBandedMatchesSerial(t *testing.T) {
	for ci, tc := range gradCases {
		const batch = 5
		x, gradOut := gradInputs(tc.g, tc.f, batch, tc.zeroGrads, uint64(40+ci))
		x = padBatch(x, tc.g)
		g := tc.g.Padded()
		want := New(tc.f, g.ColRows())
		fill(want.Data, 41)
		got := want.Clone()
		var s Scratch
		ConvWeightGradAdd(want, gradOut, x, g, &s)
		rows := func(d *Dense, lo, hi int) *Dense { return FromSlice(d.Data[lo*d.Cols():hi*d.Cols()], hi-lo, d.Cols()) }
		ConvWeightGradAdd(got, rows(gradOut, 0, 2), rows(x, 0, 2), g, &s)
		ConvWeightGradAdd(got, rows(gradOut, 2, batch), rows(x, 2, batch), g, &s)
		mustBits(t, got.Data, want.Data, "weight gradient over a split batch")
	}
}
