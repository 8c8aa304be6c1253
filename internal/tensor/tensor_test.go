package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"haccs/internal/stats"
)

func TestNewZeroFilled(t *testing.T) {
	a := New(3, 4)
	if a.Size() != 12 || a.Rows() != 3 || a.Cols() != 4 {
		t.Fatalf("shape accessor mismatch: %v", a.Shape)
	}
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("New not zero-filled")
		}
	}
}

func TestFromSliceAndAtSet(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if a.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v", a.At(1, 2))
	}
	a.Set(0, 1, 9)
	if a.At(0, 1) != 9 {
		t.Errorf("Set failed")
	}
	r := a.Row(1)
	if len(r) != 3 || r[0] != 4 {
		t.Errorf("Row(1) = %v", r)
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float64{1, 2}, 3, 3)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{10, 20, 30, 40}, 2, 2)
	a.Add(b)
	if a.Data[3] != 44 {
		t.Errorf("Add: %v", a.Data)
	}
	a.Sub(b)
	if a.Data[0] != 1 {
		t.Errorf("Sub: %v", a.Data)
	}
	a.Mul(b)
	if a.Data[1] != 40 {
		t.Errorf("Mul: %v", a.Data)
	}
	a.Scale(0.5)
	if a.Data[1] != 20 {
		t.Errorf("Scale: %v", a.Data)
	}
	a = FromSlice([]float64{1, 1}, 1, 2)
	a.AXPY(2, FromSlice([]float64{3, 4}, 1, 2))
	if a.Data[0] != 7 || a.Data[1] != 9 {
		t.Errorf("AXPY: %v", a.Data)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).Add(New(2, 3))
}

func TestDotNormSum(t *testing.T) {
	a := FromSlice([]float64{3, 4}, 1, 2)
	if Dot(a, a) != 25 {
		t.Errorf("Dot = %v", Dot(a, a))
	}
	if a.Norm2() != 5 {
		t.Errorf("Norm2 = %v", a.Norm2())
	}
	if a.Sum() != 7 {
		t.Errorf("Sum = %v", a.Sum())
	}
	if a.MaxAbs() != 4 {
		t.Errorf("MaxAbs = %v", a.MaxAbs())
	}
}

func TestTranspose(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at := a.Transpose()
	if at.Rows() != 3 || at.Cols() != 2 {
		t.Fatalf("transpose shape %v", at.Shape)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeLargeBlocked(t *testing.T) {
	rng := stats.NewRNG(1)
	a := New(67, 129)
	a.RandNormal(0, 1, rng)
	at := a.Transpose()
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("blocked transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := New(2, 3)
	b := a.Reshape(3, 2)
	b.Data[0] = 42
	if a.Data[0] != 42 {
		t.Error("Reshape does not share data")
	}
}

func TestArgMaxRows(t *testing.T) {
	a := FromSlice([]float64{0.1, 0.9, 0.5, 0.2, 0.2, 0.1}, 2, 3)
	got := a.ArgMaxRows()
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("ArgMaxRows = %v", got)
	}
}

func TestSoftmaxRows(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 1000, 1001, 1002}, 2, 3)
	s := a.SoftmaxRows()
	for i := 0; i < 2; i++ {
		sum := 0.0
		for j := 0; j < 3; j++ {
			v := s.At(i, j)
			if v <= 0 || v >= 1 {
				t.Fatalf("softmax entry out of (0,1): %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d softmax sum %v", i, sum)
		}
	}
	// Shift invariance: rows 0 and 1 differ by a constant, so the
	// softmax outputs must match.
	for j := 0; j < 3; j++ {
		if math.Abs(s.At(0, j)-s.At(1, j)) > 1e-9 {
			t.Fatalf("softmax not shift invariant at col %d", j)
		}
	}
}

func naiveMatMul(a, b *Dense) *Dense {
	m, k, n := a.Rows(), a.Cols(), b.Cols()
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	got := MatMul(a, b)
	want := FromSlice([]float64{19, 22, 43, 50}, 2, 2)
	if !Equal(got, want, 1e-12) {
		t.Errorf("MatMul = %v, want %v", got.Data, want.Data)
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := stats.NewRNG(2)
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {17, 9, 23}, {64, 32, 48}} {
		a := New(dims[0], dims[1])
		b := New(dims[1], dims[2])
		a.RandNormal(0, 1, rng)
		b.RandNormal(0, 1, rng)
		if !Equal(MatMul(a, b), naiveMatMul(a, b), 1e-9) {
			t.Errorf("MatMul mismatch for dims %v", dims)
		}
	}
}

func TestMatMulParallelPathMatchesNaive(t *testing.T) {
	rng := stats.NewRNG(3)
	// 80³ multiply-adds once took the goroutine fan-out; the one serial
	// kernel now runs it as twenty 4-row blocks with no leftover rows.
	a := New(80, 80)
	b := New(80, 80)
	a.RandNormal(0, 1, rng)
	b.RandNormal(0, 1, rng)
	if !Equal(MatMul(a, b), naiveMatMul(a, b), 1e-8) {
		t.Error("80×80 MatMul diverges from naive")
	}
}

func TestMatMulInto(t *testing.T) {
	rng := stats.NewRNG(4)
	a := New(5, 7)
	b := New(7, 3)
	a.RandNormal(0, 1, rng)
	b.RandNormal(0, 1, rng)
	dst := New(5, 3)
	dst.Fill(99) // must be overwritten, not accumulated into
	MatMulInto(dst, a, b)
	if !Equal(dst, naiveMatMul(a, b), 1e-9) {
		t.Error("MatMulInto mismatch")
	}
}

func TestMatMulDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestMatMulTransB(t *testing.T) {
	rng := stats.NewRNG(5)
	a := New(6, 9)
	b := New(4, 9)
	a.RandNormal(0, 1, rng)
	b.RandNormal(0, 1, rng)
	want := naiveMatMul(a, b.Transpose())
	if !Equal(MatMulTransB(a, b), want, 1e-9) {
		t.Error("MatMulTransB mismatch")
	}
}

func TestMatMulTransBParallel(t *testing.T) {
	rng := stats.NewRNG(6)
	a := New(90, 90)
	b := New(90, 90)
	a.RandNormal(0, 1, rng)
	b.RandNormal(0, 1, rng)
	want := naiveMatMul(a, b.Transpose())
	if !Equal(MatMulTransB(a, b), want, 1e-8) {
		t.Error("90×90 MatMulTransB mismatch")
	}
}

func TestMatMulTransA(t *testing.T) {
	rng := stats.NewRNG(7)
	a := New(9, 6)
	b := New(9, 4)
	a.RandNormal(0, 1, rng)
	b.RandNormal(0, 1, rng)
	want := naiveMatMul(a.Transpose(), b)
	if !Equal(MatMulTransA(a, b), want, 1e-9) {
		t.Error("MatMulTransA mismatch")
	}
}

func TestMatMulPropertyDistributive(t *testing.T) {
	// (A+B)·C == A·C + B·C on random small matrices.
	rng := stats.NewRNG(8)
	f := func(seed uint16) bool {
		r := stats.NewRNG(uint64(seed) + 1)
		m, k, n := r.Intn(6)+1, r.Intn(6)+1, r.Intn(6)+1
		a, b, c := New(m, k), New(m, k), New(k, n)
		a.RandNormal(0, 1, rng)
		b.RandNormal(0, 1, rng)
		c.RandNormal(0, 1, rng)
		ab := a.Clone()
		ab.Add(b)
		left := MatMul(ab, c)
		right := MatMul(a, c)
		right.Add(MatMul(b, c))
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no pad: Im2Col is the identity layout.
	img := []float64{1, 2, 3, 4}
	g := ConvGeom{Channels: 1, Height: 2, Width: 2, Kernel: 1, Stride: 1, Pad: 0}
	cols := Im2Col(img, g)
	if cols.Rows() != 1 || cols.Cols() != 4 {
		t.Fatalf("shape %v", cols.Shape)
	}
	for i, v := range img {
		if cols.Data[i] != v {
			t.Fatalf("identity im2col mismatch at %d", i)
		}
	}
}

func TestIm2ColKnown(t *testing.T) {
	// 3x3 image, 2x2 kernel, stride 1: 4 output positions.
	img := []float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	g := ConvGeom{Channels: 1, Height: 3, Width: 3, Kernel: 2, Stride: 1, Pad: 0}
	cols := Im2Col(img, g)
	if cols.Rows() != 4 || cols.Cols() != 4 {
		t.Fatalf("shape %v", cols.Shape)
	}
	// Column for output (0,0) is the window [1,2,4,5] spread down rows.
	want00 := []float64{1, 2, 4, 5}
	for r := 0; r < 4; r++ {
		if cols.At(r, 0) != want00[r] {
			t.Errorf("col 0 row %d = %v, want %v", r, cols.At(r, 0), want00[r])
		}
	}
	// Output (1,1) window is [5,6,8,9].
	want11 := []float64{5, 6, 8, 9}
	for r := 0; r < 4; r++ {
		if cols.At(r, 3) != want11[r] {
			t.Errorf("col 3 row %d = %v, want %v", r, cols.At(r, 3), want11[r])
		}
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	img := []float64{1, 1, 1, 1}
	g := ConvGeom{Channels: 1, Height: 2, Width: 2, Kernel: 3, Stride: 1, Pad: 1}
	cols := Im2Col(img, g)
	if cols.Rows() != 9 || cols.Cols() != 4 {
		t.Fatalf("shape %v", cols.Shape)
	}
	// Top-left output, kernel position (0,0) hits padding -> zero.
	if cols.At(0, 0) != 0 {
		t.Error("padding position not zero")
	}
	// Center kernel position (1,1) of output (0,0) hits pixel (0,0) = 1.
	if cols.At(4, 0) != 1 {
		t.Error("center tap wrong")
	}
}

func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	// Adjoint test: <Im2Col(x), y> == <x, Col2Im(y)> for random x, y.
	rng := stats.NewRNG(9)
	geoms := []ConvGeom{
		{Channels: 1, Height: 5, Width: 5, Kernel: 3, Stride: 1, Pad: 0},
		{Channels: 2, Height: 6, Width: 4, Kernel: 2, Stride: 2, Pad: 0},
		{Channels: 3, Height: 5, Width: 5, Kernel: 3, Stride: 1, Pad: 1},
	}
	for _, g := range geoms {
		x := make([]float64, g.Channels*g.Height*g.Width)
		for i := range x {
			x[i] = rng.Normal(0, 1)
		}
		cols := Im2Col(x, g)
		y := New(cols.Rows(), cols.Cols())
		y.RandNormal(0, 1, rng)
		lhs := Dot(cols, y)
		back := Col2Im(y, g)
		rhs := 0.0
		for i := range x {
			rhs += x[i] * back[i]
		}
		if math.Abs(lhs-rhs) > 1e-9 {
			t.Errorf("adjoint identity violated for %+v: %v vs %v", g, lhs, rhs)
		}
	}
}

func TestConvGeomOutputDims(t *testing.T) {
	g := ConvGeom{Channels: 1, Height: 28, Width: 28, Kernel: 5, Stride: 1, Pad: 0}
	if g.OutHeight() != 24 || g.OutWidth() != 24 {
		t.Errorf("LeNet conv1 out dims %dx%d, want 24x24", g.OutHeight(), g.OutWidth())
	}
	g2 := ConvGeom{Channels: 6, Height: 24, Width: 24, Kernel: 2, Stride: 2, Pad: 0}
	if g2.OutHeight() != 12 || g2.OutWidth() != 12 {
		t.Errorf("pool out dims %dx%d, want 12x12", g2.OutHeight(), g2.OutWidth())
	}
}

func TestEqualToleranceAndShape(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 1, 2)
	b := FromSlice([]float64{1, 2.0001}, 1, 2)
	if !Equal(a, b, 1e-3) {
		t.Error("Equal within tolerance failed")
	}
	if Equal(a, b, 1e-6) {
		t.Error("Equal beyond tolerance passed")
	}
	if Equal(a, New(2, 1), 1) {
		t.Error("Equal across shapes passed")
	}
}
