package nn

import (
	"fmt"

	"haccs/internal/stats"
	"haccs/internal/tensor"
)

// Arch is a declarative model architecture. The federated engine builds
// one network per experiment from an Arch so that every strategy trains
// the exact same model family, seeded identically.
type Arch struct {
	// Kind selects the family: "mlp", "lenet", or "lenet-ref" (the
	// same LeNet built on the per-image Conv2DRef oracle layers, used
	// by regression tests that pin the direct conv to the reference).
	Kind string
	// Input geometry. For "mlp", In is the flat feature count and the
	// image fields are ignored. For "lenet", Channels/Height/Width
	// describe the image.
	In       int
	Channels int
	Height   int
	Width    int
	// Hidden holds hidden-layer widths for "mlp" (e.g. {128, 64}).
	Hidden []int
	// Classes is the number of output classes.
	Classes int
	// ConvFilters holds the two conv-layer filter counts for "lenet";
	// zero values default to the LeNet-style (6, 16).
	ConvFilters [2]int
}

// Build constructs a freshly initialized network for the architecture.
func (a Arch) Build(rng *stats.RNG) *Network {
	switch a.Kind {
	case "mlp":
		return NewMLP(a.In, a.Hidden, a.Classes, rng)
	case "lenet":
		f1, f2 := a.ConvFilters[0], a.ConvFilters[1]
		if f1 == 0 {
			f1 = 6
		}
		if f2 == 0 {
			f2 = 16
		}
		return NewLeNet(a.Channels, a.Height, a.Width, a.Classes, f1, f2, rng)
	case "lenet-ref":
		f1, f2 := a.ConvFilters[0], a.ConvFilters[1]
		if f1 == 0 {
			f1 = 6
		}
		if f2 == 0 {
			f2 = 16
		}
		return NewLeNetRef(a.Channels, a.Height, a.Width, a.Classes, f1, f2, rng)
	default:
		panic(fmt.Sprintf("nn: unknown architecture kind %q", a.Kind))
	}
}

// Equal reports whether two specs describe the same architecture; a nil
// and an empty Hidden are the same (gob decodes an empty slice as nil).
func (a Arch) Equal(b Arch) bool {
	if a.Kind != b.Kind || a.In != b.In || a.Channels != b.Channels ||
		a.Height != b.Height || a.Width != b.Width || a.Classes != b.Classes ||
		a.ConvFilters != b.ConvFilters || len(a.Hidden) != len(b.Hidden) {
		return false
	}
	for i := range a.Hidden {
		if a.Hidden[i] != b.Hidden[i] {
			return false
		}
	}
	return true
}

// ArchMismatchError reports a checkpoint whose architecture stamp or
// parameter count does not match what the caller expects. Match with
// errors.As.
type ArchMismatchError struct {
	Got, Want Arch
	// GotParams/WantParams are filled when the architectures matched
	// but the stored vector has the wrong length (a checkpoint written
	// by an incompatible build, or silent truncation upstream).
	GotParams, WantParams int
}

func (e *ArchMismatchError) Error() string {
	if e.WantParams > 0 && e.GotParams != e.WantParams {
		return fmt.Sprintf("nn: checkpoint has %d params, architecture needs %d", e.GotParams, e.WantParams)
	}
	return fmt.Sprintf("nn: checkpoint architecture %+v does not match expected %+v", e.Got, e.Want)
}

// NewMLP builds a multilayer perceptron with ReLU activations:
// in -> hidden[0] -> ... -> hidden[n-1] -> classes.
func NewMLP(in int, hidden []int, classes int, rng *stats.RNG) *Network {
	if in <= 0 || classes <= 0 {
		panic("nn: NewMLP with non-positive dimensions")
	}
	var layers []Layer
	prev := in
	for _, h := range hidden {
		layers = append(layers, NewDense(prev, h, rng), NewReLU())
		prev = h
	}
	layers = append(layers, NewDense(prev, classes, rng))
	return NewNetwork(layers...)
}

// NewLeNet builds a LeNet-style convolutional network, the architecture
// family the paper trains (LeNet on FEMNIST/CIFAR-10 images):
//
//	conv(k=5, f1) -> ReLU -> maxpool(2)
//	conv(k=5, f2) -> ReLU -> maxpool(2)
//	flatten -> dense(120) -> ReLU -> dense(classes)
//
// Channels/height/width describe the input image; the spatial dimensions
// must survive the two conv+pool stages (>= 16 pixels on each side with
// k=5; smaller inputs should pass padding-friendly sizes or use NewMLP).
func NewLeNet(channels, height, width, classes, f1, f2 int, rng *stats.RNG) *Network {
	conv := func(g tensor.ConvGeom, f int, rng *stats.RNG) Layer { return NewConv2D(g, f, rng) }
	return buildLeNet(channels, height, width, classes, f1, f2, conv, rng)
}

// NewLeNetRef is NewLeNet built on Conv2DRef, the per-image reference
// convolution. Both constructors share buildLeNet and draw from the RNG
// in the same order, so with equal seeds the two networks start from
// bit-identical parameters — the precondition for the direct-vs-
// reference training regression tests.
func NewLeNetRef(channels, height, width, classes, f1, f2 int, rng *stats.RNG) *Network {
	conv := func(g tensor.ConvGeom, f int, rng *stats.RNG) Layer { return NewConv2DRef(g, f, rng) }
	return buildLeNet(channels, height, width, classes, f1, f2, conv, rng)
}

func buildLeNet(channels, height, width, classes, f1, f2 int, conv func(tensor.ConvGeom, int, *stats.RNG) Layer, rng *stats.RNG) *Network {
	g1 := tensor.ConvGeom{Channels: channels, Height: height, Width: width, Kernel: 5, Stride: 1, Pad: 0}
	conv1 := conv(g1, f1, rng)
	p1 := tensor.ConvGeom{Channels: f1, Height: g1.OutHeight(), Width: g1.OutWidth(), Kernel: 2, Stride: 2, Pad: 0}
	pool1 := NewMaxPool2D(p1)
	g2 := tensor.ConvGeom{Channels: f1, Height: p1.OutHeight(), Width: p1.OutWidth(), Kernel: 5, Stride: 1, Pad: 0}
	conv2 := conv(g2, f2, rng)
	p2 := tensor.ConvGeom{Channels: f2, Height: g2.OutHeight(), Width: g2.OutWidth(), Kernel: 2, Stride: 2, Pad: 0}
	pool2 := NewMaxPool2D(p2)
	flat := f2 * p2.OutHeight() * p2.OutWidth()
	return NewNetwork(
		conv1, NewReLU(), pool1,
		conv2, NewReLU(), pool2,
		NewFlatten(),
		NewDense(flat, 120, rng), NewReLU(),
		NewDense(120, classes, rng),
	)
}

// WireBytes returns the simulated size in bytes of one model transfer.
// Parameters travel as float32 on the wire (the standard federated
// deployment choice), so the size is 4 bytes per scalar.
func (n *Network) WireBytes() int { return 4 * n.NumParams() }
