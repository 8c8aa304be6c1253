package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling over an
// input of Channels × Height × Width with square kernels.
type ConvGeom struct {
	Channels int // input channels
	Height   int // input height
	Width    int // input width
	Kernel   int // kernel side length
	Stride   int
	Pad      int
}

// OutHeight returns the output height of the convolution.
func (g ConvGeom) OutHeight() int { return (g.Height+2*g.Pad-g.Kernel)/g.Stride + 1 }

// OutWidth returns the output width of the convolution.
func (g ConvGeom) OutWidth() int { return (g.Width+2*g.Pad-g.Kernel)/g.Stride + 1 }

// Validate panics if the geometry is degenerate.
func (g ConvGeom) Validate() {
	if g.Channels <= 0 || g.Height <= 0 || g.Width <= 0 || g.Kernel <= 0 || g.Stride <= 0 || g.Pad < 0 {
		panic(fmt.Sprintf("tensor: invalid conv geometry %+v", g))
	}
	if g.OutHeight() <= 0 || g.OutWidth() <= 0 {
		panic(fmt.Sprintf("tensor: conv geometry %+v yields empty output", g))
	}
}

// ColRows returns the row count C·K·K of the im2col matrix.
func (g ConvGeom) ColRows() int { return g.Channels * g.Kernel * g.Kernel }

// validRange returns the inclusive output-coordinate range [lo, hi] for
// which o·Stride + k − Pad lands inside [0, size). hi < lo means the
// whole extent falls in padding.
func validRange(k, size, extent int, g ConvGeom) (lo, hi int) {
	lo = 0
	if d := g.Pad - k; d > 0 {
		lo = (d + g.Stride - 1) / g.Stride
	}
	hi = extent - 1
	if m := size - 1 + g.Pad - k; m < 0 {
		return 1, 0
	} else if m/g.Stride < hi {
		hi = m / g.Stride
	}
	return lo, hi
}

// Im2Col unrolls one image (flattened C×H×W in img) into a matrix of
// shape (C*K*K) × (outH*outW) so that convolution with F filters becomes
// a single (F × C*K*K) · (C*K*K × outH*outW) matrix multiply. Out-of-pad
// positions contribute zeros.
func Im2Col(img []float64, g ConvGeom) *Dense {
	g.Validate()
	out := New(g.ColRows(), g.OutHeight()*g.OutWidth())
	Im2ColInto(out, img, g)
	return out
}

// Im2ColInto is Im2Col writing into a caller-owned matrix of shape
// (C*K*K) × (outH*outW); every element is written (padding positions are
// zeroed), so dst need not be cleared.
func Im2ColInto(dst *Dense, img []float64, g ConvGeom) {
	g.Validate()
	if len(img) != g.Channels*g.Height*g.Width {
		panic(fmt.Sprintf("tensor: Im2Col image length %d != %d", len(img), g.Channels*g.Height*g.Width))
	}
	if dst.Rows() != g.ColRows() || dst.Cols() != g.OutHeight()*g.OutWidth() {
		panic(fmt.Sprintf("tensor: Im2ColInto dst shape %v, want (%d, %d)", dst.Shape, g.ColRows(), g.OutHeight()*g.OutWidth()))
	}
	x := Dense{Shape: []int{1, len(img)}, Data: img}
	im2ColBatchedRange(dst, &x, g, 0, dst.Rows())
}

// Im2ColBatchedInto unrolls a whole minibatch x (batch × C·H·W, one
// flattened image per row) into dst of shape (C·K·K) × (batch·outH·outW),
// where column b·outH·outW + oy·outW + ox holds image b's window at
// (oy, ox). One GEMM against this matrix convolves the entire batch.
// Every element of dst is written. Large unrolls are banded across the
// worker pool by dst row; x is only read, so concurrent bands are safe.
func Im2ColBatchedInto(dst, x *Dense, g ConvGeom) {
	g.Validate()
	x.must2D()
	if x.Shape[1] != g.Channels*g.Height*g.Width {
		panic(fmt.Sprintf("tensor: Im2ColBatchedInto image length %d != %d", x.Shape[1], g.Channels*g.Height*g.Width))
	}
	rows := g.ColRows()
	width := x.Shape[0] * g.OutHeight() * g.OutWidth()
	if dst.Rows() != rows || dst.Cols() != width {
		panic(fmt.Sprintf("tensor: Im2ColBatchedInto dst shape %v, want (%d, %d)", dst.Shape, rows, width))
	}
	if rows*width < parallelThreshold/8 {
		im2ColBatchedRange(dst, x, g, 0, rows)
		return
	}
	parallelBands(kernelTask{op: opIm2Col, out: dst, a: x, geom: g}, rows)
}

// im2ColBatchedRange fills dst rows [lo, hi). Row r = (c·K+ky)·K+kx
// gathers input pixel (ky, kx) of every kernel window of channel c,
// laid out per image. With stride 1 an image's part of a row is outH
// equal spans of the image at a fixed stride, moved by one copyRows call:
// LeNet's spans are 2–12 floats, where a memmove call per span cost more
// than the move.
func im2ColBatchedRange(dst, x *Dense, g ConvGeom, lo, hi int) {
	outH, outW := g.OutHeight(), g.OutWidth()
	outHW := outH * outW
	batch := x.Shape[0]
	chw := x.Shape[1]
	width := batch * outHW
	K := g.Kernel
	for r := lo; r < hi; r++ {
		c := r / (K * K)
		ky := (r / K) % K
		kx := r % K
		row := dst.Data[r*width : (r+1)*width]
		oyLo, oyHi := validRange(ky, g.Height, outH, g)
		oxLo, oxHi := validRange(kx, g.Width, outW, g)
		if g.Pad > 0 {
			// Padding leaves gaps between the valid spans; clear first.
			for i := range row {
				row[i] = 0
			}
		}
		if oyLo > oyHi || oxLo > oxHi {
			continue
		}
		chanBase := c * g.Height * g.Width
		for b := 0; b < batch; b++ {
			img := x.Data[b*chw : (b+1)*chw]
			base := b * outHW
			if g.Stride == 1 {
				src := chanBase + (oyLo+ky-g.Pad)*g.Width + oxLo + kx - g.Pad
				copyRows(row[base+oyLo*outW+oxLo:], img[src:], oyHi-oyLo+1, oxHi-oxLo+1, outW, g.Width)
				continue
			}
			for oy := oyLo; oy <= oyHi; oy++ {
				iy := oy*g.Stride + ky - g.Pad
				srcRow := chanBase + iy*g.Width
				dstRow := base + oy*outW
				for ox := oxLo; ox <= oxHi; ox++ {
					row[dstRow+ox] = img[srcRow+ox*g.Stride+kx-g.Pad]
				}
			}
		}
	}
}

// Col2Im is the adjoint of Im2Col: it scatters a (C*K*K) × (outH*outW)
// gradient matrix back into an image-shaped gradient, accumulating where
// kernel windows overlap. It is used by the convolution backward pass.
func Col2Im(cols *Dense, g ConvGeom) []float64 {
	g.Validate()
	outH, outW := g.OutHeight(), g.OutWidth()
	if cols.Rows() != g.ColRows() || cols.Cols() != outH*outW {
		panic(fmt.Sprintf("tensor: Col2Im shape %v, want (%d, %d)", cols.Shape, g.ColRows(), outH*outW))
	}
	img := make([]float64, g.Channels*g.Height*g.Width)
	Col2ImInto(img, cols, g)
	return img
}

// Col2ImInto is Col2Im writing into a caller-owned image buffer, which
// is zeroed before accumulation.
func Col2ImInto(img []float64, cols *Dense, g ConvGeom) {
	g.Validate()
	outHW := g.OutHeight() * g.OutWidth()
	if cols.Rows() != g.ColRows() || cols.Cols() != outHW {
		panic(fmt.Sprintf("tensor: Col2ImInto shape %v, want (%d, %d)", cols.Shape, g.ColRows(), outHW))
	}
	if len(img) != g.Channels*g.Height*g.Width {
		panic(fmt.Sprintf("tensor: Col2ImInto image length %d != %d", len(img), g.Channels*g.Height*g.Width))
	}
	dst := Dense{Shape: []int{1, len(img)}, Data: img}
	col2ImBatchedRange(&dst, cols, g, 0, 1)
}

// Col2ImBatchedInto scatters a batched (C·K·K) × (batch·outH·outW)
// gradient matrix (the layout of Im2ColBatchedInto) back into dst of
// shape batch × C·H·W, zeroing dst first and accumulating where kernel
// windows overlap. Images are independent, so large batches are banded
// across the worker pool by image.
func Col2ImBatchedInto(dst, cols *Dense, g ConvGeom) {
	g.Validate()
	dst.must2D()
	batch := dst.Shape[0]
	chw := g.Channels * g.Height * g.Width
	outHW := g.OutHeight() * g.OutWidth()
	if dst.Shape[1] != chw {
		panic(fmt.Sprintf("tensor: Col2ImBatchedInto image length %d != %d", dst.Shape[1], chw))
	}
	if cols.Rows() != g.ColRows() || cols.Cols() != batch*outHW {
		panic(fmt.Sprintf("tensor: Col2ImBatchedInto shape %v, want (%d, %d)", cols.Shape, g.ColRows(), batch*outHW))
	}
	if batch*chw < parallelThreshold/8 {
		col2ImBatchedRange(dst, cols, g, 0, batch)
		return
	}
	parallelBands(kernelTask{op: opCol2Im, out: dst, a: cols, geom: g}, batch)
}

// col2ImBatchedRange scatters images [lo, hi). The (c, ky, kx, oy, ox)
// loop order matches the single-image Col2Im exactly, so per-element
// accumulation order — and hence the floating-point result — is
// identical to running Col2Im once per image.
func col2ImBatchedRange(dst, cols *Dense, g ConvGeom, lo, hi int) {
	outH, outW := g.OutHeight(), g.OutWidth()
	outHW := outH * outW
	chw := dst.Shape[1]
	width := dst.Shape[0] * outHW
	K := g.Kernel
	for b := lo; b < hi; b++ {
		img := dst.Data[b*chw : (b+1)*chw]
		for i := range img {
			img[i] = 0
		}
		base := b * outHW
		for c := 0; c < g.Channels; c++ {
			chanBase := c * g.Height * g.Width
			for ky := 0; ky < K; ky++ {
				oyLo, oyHi := validRange(ky, g.Height, outH, g)
				for kx := 0; kx < K; kx++ {
					oxLo, oxHi := validRange(kx, g.Width, outW, g)
					r := (c*K+ky)*K + kx
					src := cols.Data[r*width+base : r*width+base+outHW]
					for oy := oyLo; oy <= oyHi; oy++ {
						iy := oy*g.Stride + ky - g.Pad
						dstRow := chanBase + iy*g.Width
						srcRow := oy * outW
						for ox := oxLo; ox <= oxHi; ox++ {
							img[dstRow+ox*g.Stride+kx-g.Pad] += src[srcRow+ox]
						}
					}
				}
			}
		}
	}
}
