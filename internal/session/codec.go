package session

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"unsafe"
)

// The wire format of both hops. One message is
//
//	gob(control envelope) [ count:u32 | count × float64 ]   (little-endian)
//
// The control envelope is the hop's one-of union with its model vector
// left out; the bracketed trailer follows only when the message in
// flight is of a kind that carries one (Vectored.Vector non-nil), and is
// then always present, count 0 standing for a nil vector. Messages of
// the other kinds are plain gob, byte for byte. The vector never passes
// through gob in either direction. On a little-endian host a []float64's
// memory is the payload, so a send over a TCP connection hands the
// kernel the frame (gob part and count) and the caller's own vector as
// one vectored write, and the receive side reads off the socket straight
// into the connection's receive buffer. Any other writer gets the
// message assembled in the codec's send frame and written at once.
//
// Both ends of both hops ship from this module; there is no negotiation
// and no tolerance for a vector inside the gob part, so peers of mixed
// versions do not interoperate.

// Vectored is implemented by a hop's envelope type. Vector returns the
// slot in which the message in flight keeps its model vector, or nil
// when that kind of message carries none. It must depend only on which
// fields of the union are set, so that sender and receiver agree on it.
type Vectored interface {
	Vector() *[]float64
}

// MaxVector is the largest vector, in floats, a Codec sends, and the
// largest it accepts where the model dimension is not known beforehand
// (Decode: the client and agent ends, which learn it from the first
// request). 64 Mi parameters — 512 MiB — is far past any model this
// system trains; the server ends hold replies to the exact dimension
// instead (Server.Exchange).
const MaxVector = 1 << 26

// ErrBadVector marks a vector trailer refused before any of it was read
// or allocated — a count outside what the receiver admits — or a
// vector-bearing message whose gob part carried the vector as well.
// Hops translate it into their typed error (bad_update, bad_report).
var ErrBadVector = errors.New("session: bad vector frame")

// littleEndian reports whether this host lays a float64 out in wire
// order, so that a payload can be read straight into a []float64.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// frame is a message under construction; gob appends to it.
type frame []byte

func (f *frame) Write(p []byte) (int, error) {
	*f = append(*f, p...)
	return len(p), nil
}

// Codec frames one connection's messages in both directions, with gob's
// Encode/Decode signatures. Like a gob stream it serialises concurrent
// Encodes (a teardown's farewell may race an exchange's send) and is for
// one receiver at a time.
//
// Buffer lifetime: a received vector aliases a buffer the Codec owns and
// reuses, so it is valid until the next message is received on the same
// connection. Each end keeps one receive buffer, grown once to the model
// dimension, and one send frame, which holds only the gob part and the
// count where the vector leaves from the caller's slice (a TCP
// connection on a little-endian host) and the whole message elsewhere;
// steady state allocates nothing proportional to the dimension.
type Codec struct {
	w    io.Writer
	tcp  *net.TCPConn  // w, when a vector can leave straight from the caller's slice; else nil
	wmu  sync.Mutex    // held across one Encode
	r    *bufio.Reader // the only reader of the connection: gob uses an io.ByteReader as is, so nothing reads past the control message
	enc  *gob.Encoder  // into out
	dec  *gob.Decoder  // from r
	out  frame
	iov  [2][]byte   // frame and payload of one vectored write; cleared after it
	bufs net.Buffers // iov as the writev argument, a field so that passing it allocates nothing
	vec  []float64
}

// NewCodec returns the codec of one connection.
func NewCodec(conn io.ReadWriter) *Codec {
	c := &Codec{w: conn, r: bufio.NewReader(conn)}
	if tc, ok := conn.(*net.TCPConn); ok && littleEndian {
		c.tcp = tc
	}
	c.enc = gob.NewEncoder(&c.out)
	c.dec = gob.NewDecoder(c.r)
	return c
}

func vectorSlot(msg any) *[]float64 {
	if v, ok := msg.(Vectored); ok {
		return v.Vector()
	}
	return nil
}

// Encode sends msg — control part and, for a vector-bearing kind, the
// trailer. Over a TCP connection on a little-endian host the vector's
// bytes go to the kernel from the caller's slice, in one writev with the
// frame; any other writer gets the assembled message in a single Write.
// Either way a vector over MaxVector is refused before a byte is written.
// The vector's slot is nil while gob runs and restored before Encode
// returns, so one message must not be encoded from two goroutines at
// once (the vector itself is only read).
func (c *Codec) Encode(msg any) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.out = c.out[:0]
	slot := vectorSlot(msg)
	if slot == nil {
		if err := c.enc.Encode(msg); err != nil {
			return err
		}
		_, err := c.w.Write(c.out)
		return err
	}
	vec := *slot
	if len(vec) > MaxVector {
		return fmt.Errorf("%w: %d floats to send, at most %d", ErrBadVector, len(vec), MaxVector)
	}
	*slot = nil
	err := c.enc.Encode(msg)
	*slot = vec
	if err != nil {
		return err
	}
	if c.tcp != nil {
		c.out = binary.LittleEndian.AppendUint32(c.out, uint32(len(vec)))
		return c.writeVectored(vec)
	}
	c.out = appendVector(c.out, vec)
	_, err = c.w.Write(c.out)
	return err
}

// writeVectored writes the frame and then vec's in-memory image, which
// is its little-endian payload, as one net.Buffers write: a writev, so
// the payload is not copied before the kernel's own copy. The buffers
// are cleared afterwards, so the codec never pins a caller's vector.
func (c *Codec) writeVectored(vec []float64) error {
	c.iov = [2][]byte{c.out, floatBytes(vec)}
	c.bufs = c.iov[:]
	_, err := c.bufs.WriteTo(c.tcp)
	c.iov, c.bufs = [2][]byte{}, nil
	return err
}

// floatBytes is vec's memory as bytes: its wire payload on a
// little-endian host.
func floatBytes(vec []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vec))), 8*len(vec))
}

// appendVector appends the trailer for vec: on a little-endian host one
// copy of its in-memory image, elsewhere the portable loop.
func appendVector(b []byte, vec []float64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(vec)))
	if littleEndian {
		return append(b, floatBytes(vec)...)
	}
	return appendVectorPortable(b, vec)
}

// appendVectorPortable appends vec's little-endian payload whatever the
// host's byte order — the send path of a host that is not little-endian,
// and the reference the in-memory image is tested against.
func appendVectorPortable(b []byte, vec []float64) []byte {
	n := len(b)
	b = slices.Grow(b, 8*len(vec))[:n+8*len(vec)]
	p := b[n:]
	for ; len(vec) >= 4; vec, p = vec[4:], p[32:] {
		q := p[:32:32] // one bounds check for four stores
		binary.LittleEndian.PutUint64(q, math.Float64bits(vec[0]))
		binary.LittleEndian.PutUint64(q[8:], math.Float64bits(vec[1]))
		binary.LittleEndian.PutUint64(q[16:], math.Float64bits(vec[2]))
		binary.LittleEndian.PutUint64(q[24:], math.Float64bits(vec[3]))
	}
	for i, v := range vec {
		binary.LittleEndian.PutUint64(p[8*i:], math.Float64bits(v))
	}
	return b
}

// CountError is the ErrBadVector of a pinned decode (DecodeDim): the
// announced count was neither 0 nor the pinned dimension. Nothing of the
// payload was read or allocated.
type CountError struct {
	Count uint32
	Dim   int
}

func (e *CountError) Error() string {
	return fmt.Sprintf("%v: %d floats announced, want 0 or %d", ErrBadVector, e.Count, e.Dim)
}

func (e *CountError) Unwrap() error { return ErrBadVector }

// Decode receives the next message into msg (a pointer), admitting a
// vector of up to MaxVector floats; see the Codec doc for how long the
// vector stays valid.
func (c *Codec) Decode(msg any) error { return c.DecodeDim(msg, -1) }

// DecodeDim is Decode with the admitted vector length pinned: with
// dim >= 0 the announced count must be 0 or dim, else a *CountError. The
// count is checked after the control part is decoded into msg, and
// before the buffer grows or any payload byte is read.
func (c *Codec) DecodeDim(msg any, dim int) error {
	if err := c.dec.Decode(msg); err != nil {
		return err
	}
	slot := vectorSlot(msg)
	if slot == nil {
		return nil
	}
	if len(*slot) != 0 {
		return fmt.Errorf("%w: %d floats inside the gob part", ErrBadVector, len(*slot))
	}
	hdr, err := c.r.Peek(4)
	if err != nil {
		return unexpectedEOF(err)
	}
	count := binary.LittleEndian.Uint32(hdr)
	c.r.Discard(4) // cannot fail: Peek returned that many bytes
	switch {
	case count == 0:
		return nil
	case dim >= 0 && uint64(count) != uint64(dim):
		return &CountError{Count: count, Dim: dim}
	case count > MaxVector:
		return fmt.Errorf("%w: %d floats announced, at most %d", ErrBadVector, count, MaxVector)
	}
	n := int(count)
	if cap(c.vec) < n {
		c.vec = make([]float64, n)
	}
	vec := c.vec[:n]
	if littleEndian {
		_, err = io.ReadFull(c.r, floatBytes(vec))
	} else {
		err = readVectorPortable(c.r, vec)
	}
	if err != nil {
		return unexpectedEOF(err)
	}
	*slot = vec
	return nil
}

// readVectorPortable fills dst from r through r's own buffer — the
// receive path of a host that is not little-endian, and the reference
// the cast path is tested against.
func readVectorPortable(r *bufio.Reader, dst []float64) error {
	for len(dst) > 0 {
		n := min(len(dst), r.Size()/8)
		b, err := r.Peek(8 * n)
		if err != nil {
			return err
		}
		for i := range dst[:n] {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		r.Discard(8 * n) // cannot fail: Peek returned that many bytes
		dst = dst[n:]
	}
	return nil
}

// unexpectedEOF reports a stream that ends inside a trailer as a
// truncation, the way gob does for one that ends inside a message.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
