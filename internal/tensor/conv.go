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

// Padded returns the geometry of g's input inside its zero border: the
// same convolution over a (H+2·Pad) × (W+2·Pad) image with Pad 0.
func (g ConvGeom) Padded() ConvGeom {
	g.Height += 2 * g.Pad
	g.Width += 2 * g.Pad
	g.Pad = 0
	return g
}

// imageSize is the flattened length C·H·W of one input image.
func (g ConvGeom) imageSize() int { return g.Channels * g.Height * g.Width }

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
	if len(img) != g.imageSize() {
		panic(fmt.Sprintf("tensor: Im2Col image length %d != %d", len(img), g.imageSize()))
	}
	if dst.Rows() != g.ColRows() || dst.Cols() != g.OutHeight()*g.OutWidth() {
		panic(fmt.Sprintf("tensor: Im2ColInto dst shape %v, want (%d, %d)", dst.Shape, g.ColRows(), g.OutHeight()*g.OutWidth()))
	}
	im2col(dst, img, g)
}

// im2col fills every row of dst. Row r = (c·K+ky)·K+kx gathers input
// pixel (ky, kx) of every kernel window of channel c. With stride 1 the
// row is outH equal spans of the image at a fixed stride, moved by one
// copyRows call: LeNet's spans are 2–12 floats, where a memmove call per
// span cost more than the move.
func im2col(dst *Dense, img []float64, g ConvGeom) {
	outH, outW := g.OutHeight(), g.OutWidth()
	outHW := outH * outW
	K := g.Kernel
	for r := 0; r < dst.Rows(); r++ {
		c := r / (K * K)
		ky := (r / K) % K
		kx := r % K
		row := dst.Data[r*outHW : (r+1)*outHW]
		oyLo, oyHi := validRange(ky, g.Height, outH, g)
		oxLo, oxHi := validRange(kx, g.Width, outW, g)
		if g.Pad > 0 {
			// Padding leaves gaps between the valid spans; clear first.
			clear(row)
		}
		if oyLo > oyHi || oxLo > oxHi {
			continue
		}
		chanBase := c * g.Height * g.Width
		if g.Stride == 1 {
			src := chanBase + (oyLo+ky-g.Pad)*g.Width + oxLo + kx - g.Pad
			copyRows(row[oyLo*outW+oxLo:], img[src:], oyHi-oyLo+1, oxHi-oxLo+1, outW, g.Width)
			continue
		}
		for oy := oyLo; oy <= oyHi; oy++ {
			srcRow := chanBase + (oy*g.Stride+ky-g.Pad)*g.Width
			for ox := oxLo; ox <= oxHi; ox++ {
				row[oy*outW+ox] = img[srcRow+ox*g.Stride+kx-g.Pad]
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
	img := make([]float64, g.imageSize())
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
	if len(img) != g.imageSize() {
		panic(fmt.Sprintf("tensor: Col2ImInto image length %d != %d", len(img), g.imageSize()))
	}
	col2im(img, cols, g)
}

// col2im zeroes img and scatters cols into it in (c, ky, kx, oy, ox)
// order — the per-element accumulation order every input gradient
// shares. Without padding every window is whole, so the valid ranges
// (two integer divisions each) are the full output.
func col2im(img []float64, cols *Dense, g ConvGeom) {
	outH, outW := g.OutHeight(), g.OutWidth()
	outHW := outH * outW
	K := g.Kernel
	clear(img)
	oyLo, oyHi, oxLo, oxHi := 0, outH-1, 0, outW-1
	for c := 0; c < g.Channels; c++ {
		chanBase := c * g.Height * g.Width
		for ky := 0; ky < K; ky++ {
			if g.Pad > 0 {
				oyLo, oyHi = validRange(ky, g.Height, outH, g)
			}
			for kx := 0; kx < K; kx++ {
				if g.Pad > 0 {
					oxLo, oxHi = validRange(kx, g.Width, outW, g)
				}
				r := (c*K+ky)*K + kx
				src := cols.Data[r*outHW : (r+1)*outHW]
				for oy := oyLo; oy <= oyHi; oy++ {
					dstRow := chanBase + (oy*g.Stride+ky-g.Pad)*g.Width
					srcRow := oy * outW
					for ox := oxLo; ox <= oxHi; ox++ {
						img[dstRow+ox*g.Stride+kx-g.Pad] += src[srcRow+ox]
					}
				}
			}
		}
	}
}

// PadInto copies each image of x (batch × C·H·W) into the middle of the
// matching row of dst (batch × C·(H+2·Pad)·(W+2·Pad)) and zeroes the
// border, so a padded convolution can read its windows in place.
func PadInto(dst, x *Dense, g ConvGeom) {
	g.Validate()
	p := g.Padded()
	if x.Cols() != g.imageSize() || dst.Rows() != x.Rows() || dst.Cols() != p.imageSize() {
		panic(fmt.Sprintf("tensor: PadInto shapes %v → %v for %+v", x.Shape, dst.Shape, g))
	}
	for b := 0; b < x.Rows(); b++ {
		out, in := dst.Row(b), x.Row(b)
		clear(out)
		for c := 0; c < g.Channels; c++ {
			copyRows(out[c*p.Height*p.Width+g.Pad*p.Width+g.Pad:], in[c*g.Height*g.Width:], g.Height, g.Width, p.Width, g.Width)
		}
	}
}

// The direct convolution below never builds a column matrix. Row
// p = (c, ky, kx) of one image's im2col block is the image itself: with
// no padding, column (oy, ox) of that row is pixel
// off[p] + oy·Stride·W + ox·Stride, where off[p] = (c·H + ky)·W + kx. So
// each kernel reads the image in place through the offset table and adds
// the same products in the same ascending order as im2col + GEMM would,
// giving the same bits. Padding is a zero-bordered copy (PadInto), so
// the products with the border's zeros are still added.
//
// The kernels work on filters four at a time. A weight or gradient
// panel holds four filters' values side by side, ⌈F/4⌉ panels of
// rows × 4 with zeros past the last filter; a kernel fills all four
// lanes and the drivers keep only the real filters.

// convOffsets fills off with the image offset of each im2col row of g,
// which must have Pad 0. The offsets ascend with p; entries past
// ColRows are 0, a valid pixel for the padding lanes of a kernel.
func convOffsets(off []int, g ConvGeom) {
	clear(off)
	p := 0
	for c := 0; c < g.Channels; c++ {
		for ky := 0; ky < g.Kernel; ky++ {
			for kx := 0; kx < g.Kernel; kx++ {
				off[p] = (c*g.Height+ky)*g.Width + kx
				p++
			}
		}
	}
}

// packPanels writes the F × n row-major matrix a as ⌈F/4⌉ panels of
// rows × 4 (rows ≥ n), panel q at dst[q·stride:]: a[f][p] goes to panel
// f/4, row p, lane f%4. Lanes past F and rows past n are zero.
func packPanels(dst, a []float64, f, n, rows, stride int) {
	for q := 0; 4*q < f; q++ {
		panel := dst[q*stride : q*stride+4*rows]
		if 4*q+4 <= f {
			r0, r1, r2, r3 := a[4*q*n:][:n], a[(4*q+1)*n:][:n], a[(4*q+2)*n:][:n], a[(4*q+3)*n:][:n]
			for p, v := range r0 {
				quad := (*[4]float64)(panel[4*p:])
				quad[0], quad[1], quad[2], quad[3] = v, r1[p], r2[p], r3[p]
			}
		} else {
			clear(panel[:4*n])
			for i := 4 * q; i < f; i++ {
				for p, v := range a[i*n : (i+1)*n] {
					panel[4*p+i%4] = v
				}
			}
		}
		clear(panel[4*n:])
	}
}

// unpackPanels is packPanels' inverse over the first F lanes and n rows.
func unpackPanels(a, src []float64, f, n, rows int) {
	for i := 0; i < f; i++ {
		panel := src[i/4*rows*4+i%4:]
		row := a[i*n : (i+1)*n]
		for p := range row {
			row[p] = panel[4*p]
		}
	}
}

// mustConv checks the shapes shared by the direct kernels: a batch of
// unpadded images x against F = w.Rows() filters and their outputs.
func mustConv(op string, x, w, out *Dense, g ConvGeom) {
	g.Validate()
	if g.Pad != 0 {
		panic(fmt.Sprintf("tensor: %s takes zero-padded images (Padded, PadInto), have Pad %d", op, g.Pad))
	}
	outHW := g.OutHeight() * g.OutWidth()
	if x.Cols() != g.imageSize() || w.Cols() != g.ColRows() || out.Rows() != x.Rows() || out.Cols() != w.Rows()*outHW {
		panic(fmt.Sprintf("tensor: %s shapes x %v, w %v, out %v for %+v", op, x.Shape, w.Shape, out.Shape, g))
	}
}

// ConvForwardInto computes y = w ⊛ x + bias for a batch: x holds one
// image per row (g must have Pad 0; pad with PadInto first), w is
// F × C·K·K and y gets F·outH·outW per image, filter-major. Output
// (f, j) is the sum over ascending p of w[f][p]·im2col(x)[p][j], formed
// from +0, plus bias[f] — bit for bit what MatMul(w, Im2Col(x)) plus the
// bias gives. s holds the kernel's scratch, keys prefixed "conv.".
//
// The kernel walks an output row as outW consecutive pixels of each
// im2col row, eight or four at a time. With stride 1 and outW < 4 it
// instead walks the "wide" span of (outH−1)·W + outW positions as one
// row and keeps the outW-pixel run at the start of every W: the span's
// last read, off[C·K·K−1] + (outH−1)·W + outW − 1, is the image's last
// pixel C·H·W − 1, so it never leaves the image.
func ConvForwardInto(y, x, w *Dense, bias []float64, g ConvGeom, s *Scratch) {
	mustConv("ConvForwardInto", x, w, y, g)
	f, np := w.Rows(), g.ColRows()
	if len(bias) != f {
		panic(fmt.Sprintf("tensor: ConvForwardInto has %d biases for %d filters", len(bias), f))
	}
	outH, outW := g.OutHeight(), g.OutWidth()
	outHW := outH * outW
	panels := (f + 3) / 4
	wp := s.Floats("conv.w", panels*np*4)
	packPanels(wp, w.Data, f, np, np, np*4)
	bp := s.Floats("conv.b", panels*4)
	clear(bp)
	copy(bp, bias)
	off := s.Ints("conv.off", np)
	convOffsets(off, g)
	xs := g.Stride * g.Width // image distance between output rows
	wide := (outH-1)*g.Width + outW
	var span []float64
	if g.Stride == 1 && outW < 4 {
		span = s.Floats("conv.span", 4*wide)
	}
	for b := 0; b < x.Rows(); b++ {
		img, out := x.Row(b), y.Row(b)
		for q := 0; q < panels; q++ {
			nf := min(4, f-4*q)
			wq, bq := wp[q*np*4:(q+1)*np*4], bp[4*q:4*q+4]
			if span == nil {
				convRows(out[4*q*outHW:], outHW, nf, wq, img, off, bq, outH, outW, xs, g.Stride, outW)
				continue
			}
			convRows(span, wide, nf, wq, img, off, bq, 1, wide, 0, 1, wide)
			for i := 0; i < nf; i++ {
				copyRows(out[(4*q+i)*outHW:], span[i*wide:], outH, outW, outW, g.Width)
			}
		}
	}
}

// ConvWeightGradAdd accumulates the weight gradient of a batch into dw
// (F × C·K·K): for each image in order, the image's own sum over
// ascending output position j of gradOut[f][j]·im2col(x)[p][j] is formed
// from +0 and then added to dw[f][p]. That is the per-image reference
// order — one MatMulTransB per image added into dw — bit for bit. x is
// the batch ConvForwardInto read (Pad 0) and gradOut the gradient of its
// output. s holds the kernel's scratch, keys prefixed "conv.".
func ConvWeightGradAdd(dw, gradOut, x *Dense, g ConvGeom, s *Scratch) {
	mustConv("ConvWeightGradAdd", x, dw, gradOut, g)
	f, np := dw.Rows(), dw.Cols()
	batch := x.Rows()
	outH, outW := g.OutHeight(), g.OutWidth()
	outHW := outH * outW
	panels, rows := (f+3)/4, (np+3)&^3
	off := s.Ints("conv.off", rows)
	convOffsets(off, g)
	dp := s.Floats("conv.dw", panels*rows*4)
	packPanels(dp, dw.Data, f, np, rows, rows*4)
	// The gradient panels hold each image's gradOut position by position,
	// image after image.
	gp := s.Floats("conv.g", panels*batch*outHW*4)
	for b := 0; b < batch; b++ {
		packPanels(gp[b*outHW*4:], gradOut.Row(b), f, outHW, outHW, batch*outHW*4)
	}
	for q := 0; q < panels; q++ {
		gq := gp[q*batch*outHW*4 : (q+1)*batch*outHW*4]
		for p := 0; p < rows; p += 4 {
			convGrad4(dp[(q*rows+p)*4:(q*rows+p+4)*4], gq, x.Data, off[p:p+4], batch, outH, outW, g.Stride*g.Width, g.Stride, g.imageSize())
		}
	}
	unpackPanels(dw.Data, dp, f, np, rows)
}

// ConvInputGradInto writes the input gradient of a batch into dx: per
// image, the column gradient wᵀ·gradOut_b into an L1-sized block, then
// col2im. Each column-gradient element is formed from +0 over ascending
// filters, as MatMulTransA forms it, and col2im is Col2Im's own loop, so
// the bits are the per-image reference's. g is the layer's own geometry,
// padding included: dx rows are C·H·W, and the border's gradient is
// dropped. s holds the block, key "conv.dcols".
func ConvInputGradInto(dx, gradOut, w *Dense, g ConvGeom, s *Scratch) {
	g.Validate()
	f, np := w.Rows(), g.ColRows()
	outHW := g.OutHeight() * g.OutWidth()
	if w.Cols() != np || dx.Cols() != g.imageSize() || gradOut.Rows() != dx.Rows() || gradOut.Cols() != f*outHW {
		panic(fmt.Sprintf("tensor: ConvInputGradInto shapes dx %v, gradOut %v, w %v for %+v", dx.Shape, gradOut.Shape, w.Shape, g))
	}
	dcols := s.Dense2D("conv.dcols", np, outHW)
	for b := 0; b < dx.Rows(); b++ {
		convCols(dcols.Data, outHW, w.Data, np, gradOut.Row(b), outHW, f, np, outHW)
		col2im(dx.Row(b), dcols, g)
	}
}
