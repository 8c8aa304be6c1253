package tensor

import (
	"runtime"
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

func TestIm2ColBatchedMatchesPerImage(t *testing.T) {
	const batch = 3
	for _, g := range convGeoms {
		chw := g.Channels * g.Height * g.Width
		outHW := g.OutHeight() * g.OutWidth()
		x := New(batch, chw)
		fill(x.Data, uint64(g.Kernel*100+g.Pad*10+g.Stride))
		cols := New(g.ColRows(), batch*outHW)
		fill(cols.Data, 99) // pre-soil: every element must be overwritten
		Im2ColBatchedInto(cols, x, g)
		for b := 0; b < batch; b++ {
			ref := Im2Col(x.Row(b), g)
			for r := 0; r < g.ColRows(); r++ {
				got := cols.Data[r*batch*outHW+b*outHW : r*batch*outHW+(b+1)*outHW]
				mustExact(t, got, ref.Data[r*outHW:(r+1)*outHW], "im2col batched")
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

func TestCol2ImBatchedMatchesPerImage(t *testing.T) {
	const batch = 3
	for _, g := range convGeoms {
		outHW := g.OutHeight() * g.OutWidth()
		chw := g.Channels * g.Height * g.Width
		cols := New(g.ColRows(), batch*outHW)
		fill(cols.Data, uint64(g.Kernel))
		dst := New(batch, chw)
		fill(dst.Data, 5) // must be fully overwritten
		Col2ImBatchedInto(dst, cols, g)
		for b := 0; b < batch; b++ {
			// Extract image b's column block and run the single-image path.
			one := New(g.ColRows(), outHW)
			for r := 0; r < g.ColRows(); r++ {
				copy(one.Data[r*outHW:(r+1)*outHW], cols.Data[r*batch*outHW+b*outHW:r*batch*outHW+(b+1)*outHW])
			}
			mustExact(t, dst.Row(b), Col2Im(one, g), "col2im batched")
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

// TestAddMatMulTransBChunkedMatchesPerChunk checks the chunked kernel
// against its defining decomposition: one MatMulTransB per inner-dim
// chunk, each product added into the accumulator — the per-image weight
// gradient pattern the batched convolution relies on. Results must be
// bit-exact, including a tail chunk that does not divide k evenly, and
// output shapes the 4×4 blocks do not tile.
func TestAddMatMulTransBChunkedMatchesPerChunk(t *testing.T) {
	for _, tc := range []struct {
		m, n, k, chunk int
		zeroA          bool
	}{
		{6, 75, 4 * 49, 49, false},   // conv dW shape: chunk = outHW divides k
		{5, 7, 23, 10, false},        // ragged tail chunk
		{1, 3, 8, 8, false},          // single chunk = plain MatMulTransB
		{3, 9, 40, 1, false},         // element-at-a-time chunks
		{4, 75, 4 * 144, 144, false}, // sim_tta conv1 dW: n % 4 = 3
		{8, 100, 32 * 4, 4, false},   // sim_tta conv2 dW
		{7, 3, 11, 4, false},         // fewer than four columns
		{9, 6, 40, 1, true},          // all-zero weights, chunk 1
		{5, 13, 17, 5, true},
	} {
		a, b := New(tc.m, tc.k), New(tc.n, tc.k)
		if !tc.zeroA {
			fill(a.Data, uint64(tc.k))
		}
		fill(b.Data, uint64(tc.k+1))
		want := New(tc.m, tc.n)
		fill(want.Data, 8) // both sides accumulate onto identical garbage
		got := want.Clone()
		for c0 := 0; c0 < tc.k; c0 += tc.chunk {
			c1 := min(c0+tc.chunk, tc.k)
			ac, bc := New(tc.m, c1-c0), New(tc.n, c1-c0)
			for i := 0; i < tc.m; i++ {
				copy(ac.Data[i*(c1-c0):], a.Data[i*tc.k+c0:i*tc.k+c1])
			}
			for j := 0; j < tc.n; j++ {
				copy(bc.Data[j*(c1-c0):], b.Data[j*tc.k+c0:j*tc.k+c1])
			}
			want.Add(MatMulTransB(ac, bc))
		}
		AddMatMulTransBChunked(got, a, b, tc.chunk)
		mustExact(t, got.Data, want.Data, "AddMatMulTransBChunked")
	}
}

// TestGemmColumnBandedMatchesSerial pushes a wide-and-short product (the
// batched im2col shape) over the parallel threshold so the column-banded
// pool path runs, and requires bit-exact agreement with the serial
// kernel.
func TestGemmColumnBandedMatchesSerial(t *testing.T) {
	a, b := New(6, 80), New(80, 1024) // 6·80·1024 ≈ 491k madds > threshold
	fill(a.Data, 21)
	fill(b.Data, 22)
	got := New(6, 1024)
	MatMulInto(got, a, b)
	want := New(6, 1024)
	matMulRowsCols(want, a, b, 0, 6, 0, 1024)
	mustExact(t, got.Data, want.Data, "column-banded gemm")
}

// TestGemmRowBandedMatchesSerial does the same for the row-banded path.
func TestGemmRowBandedMatchesSerial(t *testing.T) {
	a, b := New(128, 64), New(64, 128)
	fill(a.Data, 31)
	fill(b.Data, 32)
	got := New(128, 128)
	MatMulInto(got, a, b)
	want := New(128, 128)
	matMulRowsCols(want, a, b, 0, 128, 0, 128)
	mustExact(t, got.Data, want.Data, "row-banded gemm")
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

// TestIm2ColMatchesNaive pins the batched im2col, whose stride-1 path
// moves whole spans per image, to the element-by-element definition on
// output widths that are and are not multiples of four.
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
		got := New(g.ColRows(), batch*g.OutHeight()*g.OutWidth())
		fill(got.Data, 77) // every element must be overwritten
		Im2ColBatchedInto(got, x, g)
		mustExact(t, got.Data, naiveIm2Col(x, g).Data, "im2col")
	}
}

// TestAddMatMulTransBChunkedBandedMatchesSerial pushes the chunked
// product over the parallel threshold, where the pool bands it by 4-row
// group, and requires bit-exact agreement with the serial kernel.
func TestAddMatMulTransBChunkedBandedMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	a, b := New(14, 1200), New(50, 1200) // 14·50·1200 = 840k madds > threshold
	fill(a.Data, 41)
	fill(b.Data, 42)
	got := New(14, 50)
	AddMatMulTransBChunked(got, a, b, 30)
	want := New(14, 50)
	addMatMulTransBChunkedRange(want, a, b, 30, 0, 14)
	mustExact(t, got.Data, want.Data, "banded chunked product")
}
