package session

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// note and carrier form the test hop's one-of envelope: note carries no
// vector, carrier does.
type note struct{ Text string }

type carrier struct {
	Seq int
	Vec []float64
}

type envelope struct {
	Note    *note
	Carrier *carrier
}

func (e envelope) Vector() *[]float64 {
	if e.Carrier != nil {
		return &e.Carrier.Vec
	}
	return nil
}

// pipe is an in-memory connection end: reads come from r, writes are
// collected per Write call.
type pipe struct {
	r      io.Reader
	writes [][]byte
}

func (p *pipe) Read(b []byte) (int, error) { return p.r.Read(b) }
func (p *pipe) Write(b []byte) (int, error) {
	p.writes = append(p.writes, bytes.Clone(b))
	return len(b), nil
}

// encodeAll returns what a fresh codec writes for msgs, one element per
// message, failing unless each message left in a single Write.
func encodeAll(t testing.TB, msgs ...any) [][]byte {
	t.Helper()
	p := &pipe{}
	c := NewCodec(p)
	for i, m := range msgs {
		if err := c.Encode(m); err != nil {
			t.Fatalf("encode message %d: %v", i, err)
		}
		if len(p.writes) != i+1 {
			t.Fatalf("message %d left in %d writes, want 1", i, len(p.writes)-i)
		}
	}
	return p.writes
}

func decoderOver(stream []byte) *Codec {
	return NewCodec(&pipe{r: bytes.NewReader(stream)})
}

// awkward holds the values whose bits a lossy path would disturb.
var awkward = []float64{
	0, math.Copysign(0, -1), 1, -1.5, math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, // subnormals
	math.Float64frombits(0x000fffffffffffff), // largest subnormal
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff8000000000001), // quiet NaN with payload
	math.Float64frombits(0x7ff0000000000001), // signalling NaN
	math.Float64frombits(0xfff123456789abcd),
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestNoVectorMessageIsPlainGob: a message kind without a vector slot —
// and any message that is not an envelope at all — is byte-identical to
// what a gob stream sends, message after message.
func TestNoVectorMessageIsPlainGob(t *testing.T) {
	msgs := []any{envelope{Note: &note{Text: "hello"}}, hello{ID: 7}, envelope{Note: &note{Text: "bye"}}}
	var plain bytes.Buffer
	enc := gob.NewEncoder(&plain)
	for i, got := range encodeAll(t, msgs...) {
		plain.Reset()
		if err := enc.Encode(msgs[i]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, plain.Bytes()) {
			t.Errorf("message %d: codec wrote %x, gob writes %x", i, got, plain.Bytes())
		}
	}
}

// TestVectorNeverReachesGob: the gob part of a vector-bearing message
// does not grow with the dimension, the trailer is count + 8 bytes a
// float, and the caller's message is handed back intact.
func TestVectorNeverReachesGob(t *testing.T) {
	var gobLen int
	for i, dim := range []int{0, 1, 1000, 100000} {
		vec := make([]float64, dim)
		for j := range vec {
			vec[j] = float64(j) + 0.5
		}
		msg := envelope{Carrier: &carrier{Seq: 3, Vec: vec}}
		wire := encodeAll(t, msg)[0]
		head := len(wire) - 4 - 8*dim
		if i == 0 {
			gobLen = head
		} else if head != gobLen {
			t.Errorf("dim %d: gob part is %d bytes, %d at dim 0", dim, head, gobLen)
		}
		if got := binary.LittleEndian.Uint32(wire[head:]); int(got) != dim {
			t.Errorf("dim %d: trailer announces %d", dim, got)
		}
		if len(msg.Carrier.Vec) != dim || (dim > 0 && &msg.Carrier.Vec[0] != &vec[0]) {
			t.Errorf("dim %d: Encode did not restore the caller's vector", dim)
		}
	}
}

// TestVectorRoundTrip: a stream of messages — nil, empty, awkward bit
// patterns, a long vector, then a shorter one — arrives with exactly the
// announced length and the same bits, into one reused buffer.
func TestVectorRoundTrip(t *testing.T) {
	long := make([]float64, 3000) // several bufio buffers long
	for i := range long {
		long[i] = math.Sqrt(float64(i))
	}
	vecs := [][]float64{nil, {}, awkward, long, {4, 5}, nil, {6}}
	msgs := make([]any, 0, len(vecs)+1)
	for i, v := range vecs {
		msgs = append(msgs, envelope{Carrier: &carrier{Seq: i, Vec: v}})
	}
	msgs = append(msgs, envelope{Note: &note{Text: "end"}})
	dec := decoderOver(bytes.Join(encodeAll(t, msgs...), nil))
	var prev []float64
	for i, want := range vecs {
		var env envelope
		if err := dec.Decode(&env); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if env.Carrier == nil || env.Carrier.Seq != i {
			t.Fatalf("message %d decoded as %+v", i, env)
		}
		got := env.Carrier.Vec
		if !sameBits(got, want) {
			t.Errorf("message %d: got %d floats %v, want %d floats %v", i, len(got), got, len(want), want)
		}
		if len(want) == 0 && got != nil {
			t.Errorf("message %d: an empty vector arrived as a non-nil slice", i)
		}
		if len(got) > 0 && len(prev) > 0 && len(got) <= cap(prev) && &got[0] != &prev[0] {
			t.Errorf("message %d: vector did not reuse the connection's buffer", i)
		}
		if len(got) > 0 {
			prev = got
		}
	}
	var env envelope
	if err := dec.Decode(&env); err != nil || env.Note == nil || env.Note.Text != "end" {
		t.Fatalf("message after the vectors: %+v, %v", env, err)
	}
	if err := dec.Decode(&env); err != io.EOF {
		t.Errorf("end of stream: %v, want io.EOF", err)
	}
}

// TestConcurrentEncodesStayWhole: a farewell may be sent while an
// exchange is sending on the same connection (gob's encoder allowed
// that); the frames must come out whole, in some order.
func TestConcurrentEncodesStayWhole(t *testing.T) {
	const each = 200
	p := &pipe{}
	c := NewCodec(p)
	vec := make([]float64, 700)
	var wg sync.WaitGroup
	for _, msg := range []envelope{{Carrier: &carrier{Seq: 1, Vec: vec}}, {Note: &note{Text: "farewell"}}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := c.Encode(msg); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	dec := decoderOver(bytes.Join(p.writes, nil))
	notes, carriers := 0, 0
	for {
		var env envelope
		err := dec.Decode(&env)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("after %d messages: %v", notes+carriers, err)
		}
		if env.Note != nil {
			notes++
		} else if len(env.Carrier.Vec) == len(vec) {
			carriers++
		}
	}
	if notes != each || carriers != each {
		t.Errorf("decoded %d notes and %d carriers, want %d of each", notes, carriers, each)
	}
}

// TestCastAndPortablePathsAgree: the portable send loop writes the
// little-endian image of the floats, which on a little-endian host is
// their memory (what the cast paths send and read in place), and the
// read-in-place path and the portable read path turn it back into the
// same bits.
func TestCastAndPortablePathsAgree(t *testing.T) {
	vec := append(append([]float64(nil), awkward...), make([]float64, 1500)...)
	for i := len(awkward); i < len(vec); i++ {
		vec[i] = math.Float64frombits(0x9e3779b97f4a7c15 * uint64(i))
	}
	payload := appendVectorPortable(nil, vec)
	for i, v := range vec {
		if got := binary.LittleEndian.Uint64(payload[8*i:]); got != math.Float64bits(v) {
			t.Fatalf("float %d written as %016x, want %016x", i, got, math.Float64bits(v))
		}
	}
	if littleEndian && !bytes.Equal(payload, floatBytes(vec)) {
		t.Error("send loop and the in-memory image disagree on a little-endian host")
	}
	// Whichever path this host takes in appendVector.
	if trailer := appendVector(nil, vec); !bytes.Equal(trailer[4:], payload) {
		t.Error("appendVector and the portable send loop disagree")
	}

	portable := make([]float64, len(vec))
	if err := readVectorPortable(decoderOver(payload).r, portable); err != nil {
		t.Fatal(err)
	}
	if !sameBits(portable, vec) {
		t.Error("portable read path changed bits")
	}
	// Whichever path this host takes in DecodeDim.
	var env envelope
	if err := decoderOver(encodeAll(t, envelope{Carrier: &carrier{Vec: vec}})[0]).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if !sameBits(env.Carrier.Vec, portable) {
		t.Error("decode and the portable path disagree")
	}
	if err := readVectorPortable(decoderOver(payload[:len(payload)-3]).r, portable); err == nil {
		t.Error("portable path accepted a truncated payload")
	}
}

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b := <-accepted
	if b == nil {
		t.FailNow()
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// patterned is a vector of n floats that cycles through the awkward bit
// patterns and fills the rest with distinct ones.
func patterned(n int) []float64 {
	vec := make([]float64, n)
	for i := range vec {
		if i < len(awkward) {
			vec[i] = awkward[i]
		} else {
			vec[i] = math.Float64frombits(0x9e3779b97f4a7c15 * uint64(i))
		}
	}
	return vec
}

// TestVectoredSendMatchesFrame: what a codec over a TCP connection puts
// on the wire — the vector straight from the caller's slice where the
// host allows — is byte for byte the stream the assembled path writes
// into a bytes.Buffer, message after message, and nothing more.
func TestVectoredSendMatchesFrame(t *testing.T) {
	msgs := []any{envelope{Note: &note{Text: "first"}}}
	for i, n := range []int{-1, 0, 1, 4096, 65536} {
		var vec []float64
		if n >= 0 {
			vec = patterned(n)
		}
		msgs = append(msgs, envelope{Carrier: &carrier{Seq: i, Vec: vec}})
	}
	msgs = append(msgs, envelope{Note: &note{Text: "last"}})

	var want bytes.Buffer
	assembled := NewCodec(&want)
	for i, m := range msgs {
		if err := assembled.Encode(m); err != nil {
			t.Fatalf("assembled message %d: %v", i, err)
		}
	}

	a, b := tcpPair(t)
	sender := NewCodec(a)
	if littleEndian && sender.tcp == nil {
		t.Fatal("a codec over a TCP connection on a little-endian host does not send vectored")
	}
	got := make(chan []byte, 1)
	go func() {
		wire, err := io.ReadAll(b)
		if err != nil {
			t.Error(err)
		}
		got <- wire
	}()
	for i, m := range msgs {
		if err := sender.Encode(m); err != nil {
			t.Fatalf("TCP message %d: %v", i, err)
		}
		if sender.iov[0] != nil || sender.iov[1] != nil || sender.bufs != nil {
			t.Fatalf("message %d: the codec still holds the vectored write's buffers", i)
		}
	}
	if sender.tcp != nil && cap(sender.out) >= 8*65536 {
		t.Errorf("the TCP send frame grew to %d bytes: the vector was copied into it", cap(sender.out))
	}
	a.Close()
	if wire := <-got; !bytes.Equal(wire, want.Bytes()) {
		t.Fatalf("TCP stream of %d bytes differs from the assembled stream of %d", len(wire), want.Len())
	}
}

// TestEchoOfReceiveBufferRoundTrips: a peer that sends back the vector
// it just received — a slice of its own receive buffer — hands the
// caller the same bits, whichever send path each end takes.
func TestEchoOfReceiveBufferRoundTrips(t *testing.T) {
	a, b := tcpPair(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		peer := NewCodec(b)
		for {
			var env envelope
			if peer.Decode(&env) != nil || peer.Encode(env) != nil {
				return
			}
		}
	}()
	c := NewCodec(a)
	for i, n := range []int{3, 4096, 65536, 1, 4096} {
		want := patterned(n)
		if err := c.Encode(envelope{Carrier: &carrier{Seq: i, Vec: want}}); err != nil {
			t.Fatal(err)
		}
		var env envelope
		if err := c.Decode(&env); err != nil {
			t.Fatalf("echo %d: %v", i, err)
		}
		if env.Carrier.Seq != i || !sameBits(env.Carrier.Vec, want) {
			t.Fatalf("echo %d of %d floats came back changed", i, n)
		}
	}
	a.Close()
	<-done
}

// TestOversizedVectorRefusedBeforeWrite: a vector over MaxVector is
// refused before any byte leaves, on the assembled and the TCP path, and
// the stream stays usable.
func TestOversizedVectorRefusedBeforeWrite(t *testing.T) {
	// A slice header claiming MaxVector+1 floats over one: the refusal
	// must come from the length alone, before any of them is read.
	type sliceHeader struct {
		data     unsafe.Pointer
		len, cap int
	}
	var one float64
	huge := *(*[]float64)(unsafe.Pointer(&sliceHeader{unsafe.Pointer(&one), MaxVector + 1, MaxVector + 1}))
	msg := envelope{Carrier: &carrier{Vec: huge}}

	p := &pipe{}
	if err := NewCodec(p).Encode(msg); !errors.Is(err, ErrBadVector) || len(p.writes) != 0 {
		t.Errorf("assembled path: err %v after %d writes, want ErrBadVector and none", err, len(p.writes))
	}

	a, b := tcpPair(t)
	c := NewCodec(a)
	if err := c.Encode(msg); !errors.Is(err, ErrBadVector) {
		t.Fatalf("TCP path: err %v, want ErrBadVector", err)
	}
	if err := c.Encode(envelope{Carrier: &carrier{Seq: 9, Vec: []float64{1}}}); err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := NewCodec(b).Decode(&env); err != nil || env.Carrier == nil || env.Carrier.Seq != 9 {
		t.Fatalf("first message after the refusal: %+v, %v", env.Carrier, err)
	}
}

// TestTCPEncodeAllocatesNothing: a steady-state send of a vector-bearing
// message over TCP allocates nothing — the vectored write's argument is
// the codec's own field.
func TestTCPEncodeAllocatesNothing(t *testing.T) {
	a, b := tcpPair(t)
	go io.Copy(io.Discard, b)
	c := NewCodec(a)
	var msg any = envelope{Carrier: &carrier{Seq: 1, Vec: patterned(4096)}}
	if err := c.Encode(msg); err != nil { // gob sends its type descriptors once
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := c.Encode(msg); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Encode over TCP: %v allocations a message, want 0", n)
	}
}

// oneShot serves its bytes in one Read and fails the test if it is asked
// for more: what a refused frame must never do.
type oneShot struct {
	t    *testing.T
	data []byte
}

func (o *oneShot) Read(b []byte) (int, error) {
	if o.data == nil {
		o.t.Error("decoder read past the refused count")
		return 0, io.EOF
	}
	n := copy(b, o.data)
	if n < len(o.data) {
		o.t.Fatalf("test frame of %d bytes does not fit one read of %d", len(o.data), len(b))
	}
	o.data = nil
	return n, nil
}

func (o *oneShot) Write(b []byte) (int, error) { return len(b), nil }

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// TestDecodeRefusals: every way a trailer can be wrong is an error, and
// a refused count costs no read and no allocation.
func TestDecodeRefusals(t *testing.T) {
	good := encodeAll(t, envelope{Carrier: &carrier{Seq: 1, Vec: []float64{1, 2, 3}}})[0]
	head := good[:len(good)-4-24]
	withCount := func(n uint32) []byte {
		return binary.LittleEndian.AppendUint32(bytes.Clone(head), n)
	}

	t.Run("truncated mid-vector", func(t *testing.T) {
		for cut := 1; cut < 4+24; cut++ {
			var env envelope
			err := decoderOver(good[:len(good)-cut]).Decode(&env)
			if err != io.ErrUnexpectedEOF {
				t.Fatalf("stream cut %d bytes short: err %v, want io.ErrUnexpectedEOF", cut, err)
			}
		}
	})

	refused := []struct {
		name  string
		count uint32
		dim   int
	}{
		{"over the ceiling", MaxVector + 1, -1},
		{"hostile announcer", math.MaxInt32, -1},
		{"hostile announcer, pinned", math.MaxInt32, 3},
		{"longer than pinned", 4, 3},
		{"shorter than pinned", 2, 3},
		{"anything when pinned to none", 1, 0},
	}
	for _, tc := range refused {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCodec(&oneShot{t: t, data: withCount(tc.count)})
			var env envelope
			before := totalAlloc()
			err := c.DecodeDim(&env, tc.dim)
			grew := totalAlloc() - before
			if !errors.Is(err, ErrBadVector) {
				t.Fatalf("err = %v, want ErrBadVector", err)
			}
			var ce *CountError
			if pinned := tc.dim >= 0; errors.As(err, &ce) != pinned || pinned && (ce.Count != tc.count || ce.Dim != tc.dim) {
				t.Errorf("err = %#v, want a *CountError carrying %d and %d exactly when pinned", err, tc.count, tc.dim)
			}
			if grew > 1<<16 { // gob compiling its decoder is ≈ 8 KiB; one ceiling-sized vector is 512 MiB
				t.Errorf("refusing %d floats allocated %d bytes", tc.count, grew)
			}
			if c.vec != nil {
				t.Errorf("refused frame grew the receive buffer to %d", cap(c.vec))
			}
		})
	}

	t.Run("admitted when pinned", func(t *testing.T) {
		for _, stream := range [][]byte{good, withCount(0)} {
			var env envelope
			if err := decoderOver(stream).DecodeDim(&env, 3); err != nil {
				t.Errorf("decode pinned to 3: %v", err)
			}
		}
	})

	t.Run("vector inside the gob part", func(t *testing.T) {
		// A peer that gob-encodes the vector the old way and appends an
		// empty trailer: refused, not accepted as a second format.
		var plain bytes.Buffer
		if err := gob.NewEncoder(&plain).Encode(struct{ Carrier *carrier }{&carrier{Vec: []float64{1}}}); err != nil {
			t.Fatal(err)
		}
		var env envelope
		err := decoderOver(binary.LittleEndian.AppendUint32(plain.Bytes(), 0)).Decode(&env)
		if !errors.Is(err, ErrBadVector) {
			t.Fatalf("err = %v, want ErrBadVector", err)
		}
	})

	t.Run("trailer on a kind without a slot", func(t *testing.T) {
		// The receiver does not expect a trailer after a note, so the
		// trailer's bytes are taken for the next gob message and the
		// stream fails there instead of delivering a shifted message.
		msgs := encodeAll(t, envelope{Note: &note{Text: "a"}}, envelope{Note: &note{Text: "b"}})
		trailer := appendVector(nil, []float64{1, 2})
		dec := decoderOver(bytes.Join([][]byte{msgs[0], trailer, msgs[1]}, nil))
		var env envelope
		if err := dec.Decode(&env); err != nil || env.Note == nil || env.Note.Text != "a" {
			t.Fatalf("first message: %+v, %v", env, err)
		}
		if err := dec.Decode(&envelope{}); err == nil {
			t.Fatal("a stray trailer went unnoticed")
		}
	})
}

// FuzzFrameDecode feeds arbitrary bytes to the receive path with the
// vector pinned to a small dimension (so no input can make it allocate)
// and checks it never panics, never over-reads its admission rule, and
// that whatever it accepts survives a re-encode.
func FuzzFrameDecode(f *testing.F) {
	for _, stream := range fuzzSeeds(f) {
		f.Add(stream, 4)
	}
	f.Fuzz(func(t *testing.T, data []byte, dim int) {
		dim = min(max(dim, 0), 64)
		dec := decoderOver(data)
		for {
			var env envelope
			if err := dec.DecodeDim(&env, dim); err != nil {
				return
			}
			if env.Carrier == nil {
				continue
			}
			vec := env.Carrier.Vec
			if len(vec) != 0 && len(vec) != dim {
				t.Fatalf("admitted %d floats with the vector pinned to %d", len(vec), dim)
			}
			want := slices.Clone(vec)
			var again envelope
			if err := decoderOver(encodeAll(t, env)[0]).DecodeDim(&again, dim); err != nil {
				t.Fatalf("re-encoded message refused: %v", err)
			}
			if again.Carrier.Seq != env.Carrier.Seq || !sameBits(again.Carrier.Vec, want) {
				t.Fatalf("re-encode changed the message: %+v → %+v", env.Carrier, again.Carrier)
			}
		}
	})
}

// fuzzSeeds are the hand-made starting points, also committed under
// testdata/fuzz/FuzzFrameDecode: a three-message stream, each of its
// prefixes that ends inside a trailer, and a stray trailer.
func fuzzSeeds(t testing.TB) [][]byte {
	msgs := encodeAll(t,
		envelope{Note: &note{Text: "n"}},
		envelope{Carrier: &carrier{Seq: 1}},
		envelope{Carrier: &carrier{Seq: 2, Vec: []float64{1, math.NaN(), math.Inf(-1), math.Copysign(0, -1)}}},
	)
	whole := bytes.Join(msgs, nil)
	return [][]byte{
		whole,
		whole[:len(whole)-1],
		whole[:len(whole)-32],
		whole[:len(whole)-34],
		bytes.Join([][]byte{msgs[0], appendVector(nil, []float64{1, 2})}, nil),
	}
}

// BenchmarkExchange is one Server.Exchange round trip over loopback TCP
// with an echoing peer, at the two frame sizes the repository's
// benchmark runs (net_hier_async, net_flat_sync): b.SetBytes counts the
// vector both ways.
func BenchmarkExchange(b *testing.B) {
	for _, dim := range []int{4096, 65536} {
		b.Run(fmt.Sprintf("floats=%d", dim), func(b *testing.B) {
			s, err := Listen("bench", "127.0.0.1:0", readHelloFrame)
			if err != nil {
				b.Fatal(err)
			}
			conn, err := net.Dial("tcp", s.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			peer := NewCodec(conn)
			if err := peer.Encode(hello{ID: 1}); err != nil {
				b.Fatal(err)
			}
			c, err := s.Accept()
			if err != nil || !s.Seat(c, false) {
				b.Fatalf("seat: %v", err)
			}
			echoing := make(chan struct{})
			go func() { // until Teardown closes the connection
				defer close(echoing)
				for {
					var env envelope
					if peer.Decode(&env) != nil || peer.Encode(env) != nil {
						return
					}
				}
			}()
			vec := make([]float64, dim)
			for i := range vec {
				vec[i] = float64(i%251) / 251
			}
			b.SetBytes(int64(16 * dim))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var reply envelope
				err := s.Exchange(1, envelope{Carrier: &carrier{Seq: i, Vec: vec}}, &reply, dim, func() error { return nil })
				if err != nil || len(reply.Carrier.Vec) != dim {
					b.Fatalf("exchange %d: %v", i, err)
				}
			}
			b.StopTimer()
			s.Teardown(nil)
			<-echoing
		})
	}
}
