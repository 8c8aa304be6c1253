package flnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"haccs/internal/session"
)

// identityTrainer returns the request's own vector as the update — the
// case the Trainer contract names: the reply is written to the wire
// before the receive buffer it aliases is reused.
var identityTrainer = TrainerFunc(func(_ int, params []float64) ([]float64, int, float64) {
	return params, 10, 0
})

// serveOne seats client 0 on srv over a fresh connection and returns the
// connection (closing it is the test's way to kill the session).
func serveOne(t *testing.T, srv *Server, tr Trainer) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{Reg: RegisterFromSummary(0, []float64{1}, nil, 1, 10), Trainer: tr}
	go func() { _, _ = c.Serve(conn) }()
	return conn
}

// TestTrainSteadyStateAllocatesNoVector: once both ends' buffers have
// grown, an exchange at the benchmark's 64k floats allocates less than a
// tenth of one vector on the two ends together (the gob wire allocated
// ≈ 2.2 MB per exchange: a decode buffer and a fresh slice, each way).
func TestTrainSteadyStateAllocatesNoVector(t *testing.T) {
	const dim, exchanges = 65536, 50
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	serveOne(t, srv, identityTrainer)
	if _, err := srv.AcceptClients(1); err != nil {
		t.Fatal(err)
	}
	params := make([]float64, dim)
	for i := range params {
		params[i] = float64(i)
	}
	train := func(round int) {
		rep, err := srv.Train(0, round, params, noTrace)
		if err != nil || len(rep.Params) != dim || rep.Params[dim-1] != dim-1 {
			t.Fatalf("round %d: %d floats back, err %v", round, len(rep.Params), err)
		}
	}
	train(0) // grows the four buffers
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 1; r <= exchanges; r++ {
		train(r)
	}
	runtime.ReadMemStats(&after)
	perExchange := (after.TotalAlloc - before.TotalAlloc) / exchanges
	if perExchange > 8*dim/10 {
		t.Errorf("%d bytes allocated per exchange, a vector is %d", perExchange, 8*dim)
	}
}

// TestReplyAliasesSessionBuffer pins the lifetime rule on purpose: two
// Trains to one client hand back slices over the same backing array —
// the second overwrites what the first returned — while a reconnected
// client is a new session with a new buffer, so nothing a stale session
// handed out can be written through the fresh one.
func TestReplyAliasesSessionBuffer(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := serveOne(t, srv, identityTrainer)
	if _, err := srv.AcceptClients(1); err != nil {
		t.Fatal(err)
	}
	srv.ServeReconnects()

	first, err := srv.Train(0, 0, []float64{1, 2, 3}, noTrace)
	if err != nil {
		t.Fatal(err)
	}
	second, err := srv.Train(0, 1, []float64{4, 5, 6}, noTrace)
	if err != nil {
		t.Fatal(err)
	}
	if &first.Params[0] != &second.Params[0] {
		t.Error("consecutive replies from one session do not share the session's buffer")
	}
	if first.Params[0] != 4 {
		t.Errorf("first reply reads %v after the second Train, want the overwritten 4", first.Params[0])
	}

	conn.Close()
	serveOne(t, srv, identityTrainer)
	var third TrainReply
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if third, err = srv.Train(0, 2, []float64{7, 8, 9}, noTrace); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never readmitted: %v", err)
		}
	}
	if &third.Params[0] == &second.Params[0] {
		t.Error("a reconnected session reuses the dropped session's buffer")
	}
	if second.Params[0] != 4 || third.Params[0] != 7 {
		t.Errorf("old buffer reads %v, new one %v; want 4 and 7", second.Params[0], third.Params[0])
	}
}

// TestParamsNeverReachGob: for both vector-bearing messages of this hop
// the gob part of the frame is the same size at every dimension.
func TestParamsNeverReachGob(t *testing.T) {
	for name, with := range map[string]func(vec []float64) Envelope{
		"request": func(vec []float64) Envelope { return Envelope{Request: &TrainRequest{Round: 1, Params: vec}} },
		"reply": func(vec []float64) Envelope {
			return Envelope{Reply: &TrainReply{Round: 1, NumSamples: 3, Params: vec}}
		},
	} {
		gobPart := -1
		for _, dim := range []int{0, 1, 10000} {
			var wire bytes.Buffer
			if err := session.NewCodec(&wire).Encode(with(make([]float64, dim))); err != nil {
				t.Fatal(err)
			}
			head := wire.Len() - 4 - 8*dim
			if gobPart < 0 {
				gobPart = head
			}
			if head != gobPart {
				t.Errorf("%s at %d floats: gob part %d bytes, %d at 0 floats", name, dim, head, gobPart)
			}
		}
	}
}

// announcer is a connection whose next Write, once armed, has its last
// four bytes — the trailer's count when the vector sent is empty —
// replaced by a count of its choosing.
type announcer struct {
	net.Conn
	count uint32
}

func (a *announcer) Write(p []byte) (int, error) {
	if a.count != 0 {
		p = append([]byte(nil), p...)
		binary.LittleEndian.PutUint32(p[len(p)-4:], a.count)
		a.count = 0
	}
	return a.Conn.Write(p)
}

// TestHostileAnnouncerCostsOneTypedError: a peer that answers a request
// with a well-formed reply announcing 2³¹−1 floats, and then sends
// nothing, is refused on the count alone — bad_update stamped with
// client and round, session dropped, nothing large allocated, and no
// wait for a payload that will never come.
func TestHostileAnnouncerCostsOneTypedError(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	errc := acceptAsync(srv, 1)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wire := &announcer{Conn: conn}
	peer := session.NewCodec(wire)
	reg := RegisterFromSummary(0, []float64{1}, nil, 1, 10)
	if err := peer.Encode(Envelope{Register: &reg}); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(peerWait))
	go func() {
		var env Envelope
		if err := peer.Decode(&env); err != nil || env.Request == nil {
			t.Errorf("request: %+v, %v", env, err)
			return
		}
		wire.count = math.MaxInt32
		_ = peer.Encode(Envelope{Reply: &TrainReply{ClientID: 0, Round: env.Request.Round, NumSamples: 10}})
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = srv.Train(0, 4, []float64{0, 0}, noTrace)
	runtime.ReadMemStats(&after)
	var ee *session.ProtocolError
	if !errors.As(err, &ee) || ee.Kind != ErrBadUpdate || ee.PeerID != 0 || ee.Round != 4 {
		t.Fatalf("Train err = %v, want bad_update for client 0 round 4", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing the announcement allocated %d bytes", grew)
	}
	if _, err := srv.Train(0, 5, []float64{0, 0}, noTrace); !errors.As(err, &ee) || ee.Kind != ErrNotRegistered {
		t.Fatalf("post-violation Train err = %v, want not_registered", err)
	}
}
