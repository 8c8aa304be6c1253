package flnet

import (
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"sort"
	"testing"
	"time"

	"haccs/internal/session"
	"haccs/internal/telemetry"
)

func TestEnvelopeCheck(t *testing.T) {
	reg := &Register{ClientID: 1}
	rep := &TrainReply{}
	cases := []struct {
		name string
		env  Envelope
		want session.ErrorKind // "" = valid
	}{
		{"register only", Envelope{Register: reg}, ""},
		{"reply only", Envelope{Reply: rep}, ""},
		{"request only", Envelope{Request: &TrainRequest{}}, ""},
		{"shutdown only", Envelope{Shutdown: &Shutdown{}}, ""},
		{"empty", Envelope{}, session.ErrEmptyEnvelope},
		{"two fields", Envelope{Register: reg, Reply: rep}, session.ErrAmbiguousEnvelope},
		{"all fields", Envelope{Register: reg, Request: &TrainRequest{}, Reply: rep, Shutdown: &Shutdown{}}, session.ErrAmbiguousEnvelope},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.env.Check()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Check() = %v, want nil", err)
				}
				return
			}
			var ee *session.ProtocolError
			if !errors.As(err, &ee) || ee.Kind != tc.want {
				t.Fatalf("Check() = %v, want kind %s", err, tc.want)
			}
		})
	}
}

func TestCheckReply(t *testing.T) {
	ok := &TrainReply{ClientID: 3, Round: 7}
	cases := []struct {
		name string
		env  Envelope
		want session.ErrorKind // "" = valid
	}{
		{"valid", Envelope{Reply: ok}, ""},
		{"empty", Envelope{}, session.ErrEmptyEnvelope},
		{"ambiguous", Envelope{Reply: ok, Shutdown: &Shutdown{}}, session.ErrAmbiguousEnvelope},
		{"register instead of reply", Envelope{Register: &Register{ClientID: 3}}, session.ErrUnexpectedMessage},
		{"wrong round", Envelope{Reply: &TrainReply{ClientID: 3, Round: 6}}, session.ErrWrongRound},
		{"wrong client", Envelope{Reply: &TrainReply{ClientID: 4, Round: 7}}, ErrWrongClient},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reply, err := checkReply(&tc.env, 3, 7, telemetry.SpanContext{})
			if tc.want == "" {
				if err != nil || reply == nil {
					t.Fatalf("checkReply = (%v, %v), want the reply", reply, err)
				}
				return
			}
			var ee *session.ProtocolError
			if !errors.As(err, &ee) || ee.Kind != tc.want {
				t.Fatalf("checkReply err = %v, want kind %s", err, tc.want)
			}
			if ee.PeerID != 3 || ee.Round != 7 {
				t.Fatalf("error context = client %d round %d, want 3/7", ee.PeerID, ee.Round)
			}
		})
	}
}

// rawSession opens a raw connection to the server without the Client
// state machine, so tests can speak protocol violations.
type rawSession struct {
	conn net.Conn
	enc  *session.Codec
	dec  *session.Codec
}

func dialRaw(t *testing.T, addr string) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	codec := session.NewCodec(conn)
	return &rawSession{conn: conn, enc: codec, dec: codec}
}

func (r *rawSession) register(t *testing.T, id int) {
	t.Helper()
	reg := RegisterFromSummary(id, []float64{1}, nil, 1, 10)
	if err := r.enc.Encode(Envelope{Register: &reg}); err != nil {
		t.Fatalf("register: %v", err)
	}
}

// expectRequest waits, under peerWait, for the next TrainRequest from
// the server.
func (r *rawSession) expectRequest(t *testing.T) *TrainRequest {
	t.Helper()
	r.conn.SetReadDeadline(time.Now().Add(peerWait))
	defer r.conn.SetReadDeadline(time.Time{})
	var env Envelope
	if err := r.dec.Decode(&env); err != nil {
		t.Errorf("decode request: %v", err)
		return nil
	}
	if env.Request == nil {
		t.Errorf("expected TrainRequest, got %+v", env)
		return nil
	}
	return env.Request
}

func acceptAsync(srv *Server, n int) chan error {
	errc := make(chan error, 1)
	go func() {
		_, err := srv.AcceptClients(n)
		errc <- err
	}()
	return errc
}

// refusedCount reads haccs_net_registrations_refused_total{kind}.
func refusedCount(reg *telemetry.Registry, kind session.ErrorKind) float64 {
	for _, smp := range reg.Snapshot() {
		if smp.Name == "haccs_net_registrations_refused_total" && smp.LabelValue == string(kind) {
			return smp.Value
		}
	}
	return 0
}

// countingServer is a server with a registry attached, so its refusals
// are counted.
func countingServer(t *testing.T) (*Server, *telemetry.Registry) {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	reg := telemetry.NewRegistry()
	if _, err := srv.EnableTelemetry(reg, nil, ""); err != nil {
		t.Fatal(err)
	}
	return srv, reg
}

// peerWait bounds a raw session's wait for the server's next frame or
// its close, so that a server which keeps a connection it should have
// dropped fails the test in seconds instead of hanging it.
const peerWait = 2 * time.Second

// expectClosed fails unless the server has closed the raw connection
// within peerWait.
func (r *rawSession) expectClosed(t *testing.T, what string) {
	t.Helper()
	r.conn.SetReadDeadline(time.Now().Add(peerWait))
	var env Envelope
	err := r.dec.Decode(&env)
	var ne net.Error
	if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("%s: the refused connection is still open (got %+v, err %v)", what, env, err)
	}
}

// expectHonest registers the honest clients dial and checks that the
// pending AcceptClients then returns nil with exactly the IDs want
// seated. Its return orders every refusal it counted before the
// caller's reads.
func expectHonest(t *testing.T, srv *Server, errc chan error, dial []int, want ...int) {
	t.Helper()
	for _, id := range dial {
		dialRaw(t, srv.Addr()).register(t, id)
	}
	if err := <-errc; err != nil {
		t.Fatalf("AcceptClients after the refusals: %v, want nil", err)
	}
	var got []int
	for _, r := range srv.Registrations() {
		got = append(got, r.ClientID)
	}
	sort.Ints(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("registrations = %v, want the honest clients %v", got, want)
	}
}

// TestDuplicateRegisterRejected: a second Register for a seated ClientID
// is closed and counted as duplicate_register, and AcceptClients goes on
// to seat the honest clients behind it.
func TestDuplicateRegisterRejected(t *testing.T) {
	srv, reg := countingServer(t)
	errc := acceptAsync(srv, 2)
	dialRaw(t, srv.Addr()).register(t, 0)
	// Second connection claims the same ClientID.
	liar := dialRaw(t, srv.Addr())
	liar.register(t, 0)
	liar.expectClosed(t, "duplicate of client 0")
	expectHonest(t, srv, errc, []int{1}, 0, 1)
	if got := refusedCount(reg, ErrDuplicateRegister); got != 1 {
		t.Fatalf("refused{kind=duplicate_register} = %v, want 1", got)
	}
}

// TestMalformedRegistrationRejected: a first frame that is not one
// well-formed Register is closed and counted under its protocol kind,
// and AcceptClients goes on to seat the honest client behind it.
func TestMalformedRegistrationRejected(t *testing.T) {
	cases := []struct {
		name string
		env  Envelope
		want session.ErrorKind
	}{
		{"empty envelope", Envelope{}, session.ErrEmptyEnvelope},
		{"ambiguous envelope", Envelope{Register: &Register{}, Shutdown: &Shutdown{}}, session.ErrAmbiguousEnvelope},
		{"reply instead of register", Envelope{Reply: &TrainReply{}}, session.ErrUnexpectedMessage},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, reg := countingServer(t)
			errc := acceptAsync(srv, 1)
			raw := dialRaw(t, srv.Addr())
			if err := raw.enc.Encode(tc.env); err != nil {
				t.Fatal(err)
			}
			raw.expectClosed(t, tc.name)
			expectHonest(t, srv, errc, []int{3}, 3)
			if got := refusedCount(reg, tc.want); got != 1 {
				t.Fatalf("refused{kind=%s} = %v, want 1", tc.want, got)
			}
		})
	}
}

// TestBadLatencyRegisterRefused checks that a Register declaring a NaN,
// infinite or negative latency is refused at the handshake with
// bad_register: the liar's connection drops, it is counted, and it never
// registers, while the same AcceptClients call goes on admitting honest
// clients.
func TestBadLatencyRegisterRefused(t *testing.T) {
	srv, reg := countingServer(t)
	errc := acceptAsync(srv, 2)
	lats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -5}
	for i, lat := range lats {
		raw := dialRaw(t, srv.Addr())
		r := RegisterFromSummary(10+i, []float64{1}, nil, lat, 10)
		if err := raw.enc.Encode(Envelope{Register: &r}); err != nil {
			t.Fatal(err)
		}
		raw.expectClosed(t, fmt.Sprintf("latency %v", lat))
	}
	expectHonest(t, srv, errc, []int{0, 1}, 0, 1)
	if got := refusedCount(reg, ErrBadRegister); got != float64(len(lats)) {
		t.Fatalf("refused{kind=bad_register} = %v, want %d", got, len(lats))
	}
}

// TestMisbehavingRepliesDropSession covers the wire forms of reply
// violations: each one must surface as a typed error from Train and
// drop the session so the next dispatch fails fast.
func TestMisbehavingRepliesDropSession(t *testing.T) {
	cases := []struct {
		name  string
		reply func(req *TrainRequest) Envelope
		want  session.ErrorKind
	}{
		{"empty envelope", func(*TrainRequest) Envelope { return Envelope{} }, session.ErrEmptyEnvelope},
		{"ambiguous envelope", func(req *TrainRequest) Envelope {
			return Envelope{
				Reply:    &TrainReply{ClientID: 0, Round: req.Round},
				Shutdown: &Shutdown{},
			}
		}, session.ErrAmbiguousEnvelope},
		{"register instead of reply", func(*TrainRequest) Envelope {
			return Envelope{Register: &Register{ClientID: 0}}
		}, session.ErrUnexpectedMessage},
		{"wrong round", func(req *TrainRequest) Envelope {
			return Envelope{Reply: &TrainReply{ClientID: 0, Round: req.Round + 1}}
		}, session.ErrWrongRound},
		{"wrong client", func(req *TrainRequest) Envelope {
			return Envelope{Reply: &TrainReply{ClientID: 9, Round: req.Round}}
		}, ErrWrongClient},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := NewServer("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			errc := acceptAsync(srv, 1)
			raw := dialRaw(t, srv.Addr())
			raw.register(t, 0)
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				if req := raw.expectRequest(t); req != nil {
					_ = raw.enc.Encode(tc.reply(req))
				}
			}()
			_, err = srv.Train(0, 4, []float64{1}, telemetry.SpanContext{})
			<-done
			var ee *session.ProtocolError
			if !errors.As(err, &ee) || ee.Kind != tc.want {
				t.Fatalf("Train err = %v, want kind %s", err, tc.want)
			}
			// The session is gone: the next dispatch fails fast.
			if _, err := srv.Train(0, 5, []float64{1}, telemetry.SpanContext{}); !errors.As(err, &ee) || ee.Kind != ErrNotRegistered {
				t.Fatalf("post-violation Train err = %v, want ErrNotRegistered", err)
			}
		})
	}
}

func TestEnvelopeErrorMessage(t *testing.T) {
	err := hop.Err(session.ErrWrongRound, 3, 7, "reply for round 6")
	want := "flnet: wrong_round (client 3, round 7): reply for round 6"
	if err.Error() != want {
		t.Fatalf("Error() = %q, want %q", err.Error(), want)
	}
}
