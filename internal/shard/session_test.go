package shard

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"haccs/internal/rounds"
	"haccs/internal/session"
	"haccs/internal/telemetry"
)

// These tests drive the root's session handling over a real socket
// with hand-rolled shard peers — the shard-hop counterparts of flnet's
// registration and exchange failure tests.

// rawShard is a hand-driven shard connection.
type rawShard struct {
	conn net.Conn
	enc  *session.Codec
	dec  *session.Codec
}

func dialRoot(t *testing.T, srv *RootServer) *rawShard {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	codec := session.NewCodec(conn)
	return &rawShard{conn: conn, enc: codec, dec: codec}
}

func (s *rawShard) send(t *testing.T, v any) {
	t.Helper()
	if err := s.enc.Encode(v); err != nil {
		t.Fatal(err)
	}
}

// expectClosed fails unless the root has closed the connection without
// sending anything further.
func (s *rawShard) expectClosed(t *testing.T) {
	t.Helper()
	s.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := s.conn.Read(make([]byte, 1))
	var ne net.Error
	if n > 0 || err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("connection still open (read %d bytes, err %v)", n, err)
	}
}

func validHello(shardID int) Hello {
	return Hello{ShardID: shardID, Clients: []rounds.ShardClient{{ID: shardID, Latency: 1}}}
}

func newTestRoot(t *testing.T) *RootServer {
	t.Helper()
	srv, err := NewRootServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Abort() })
	return srv
}

func wantKind(t *testing.T, err error, kind session.ErrorKind) *session.ProtocolError {
	t.Helper()
	var pe *session.ProtocolError
	if !errors.As(err, &pe) || pe.Kind != kind {
		t.Fatalf("err = %v, want kind %q", err, kind)
	}
	return pe
}

func TestAcceptShardsRejectsDuplicateShard(t *testing.T) {
	srv := newTestRoot(t)
	first := dialRoot(t, srv)
	first.send(t, Envelope{Hello: ptr(validHello(0))})
	second := dialRoot(t, srv)
	second.send(t, Envelope{Hello: ptr(validHello(0))})

	_, err := srv.AcceptShards(2)
	if pe := wantKind(t, err, ErrDuplicateShard); pe.PeerID != 0 {
		t.Errorf("duplicate reported for shard %d", pe.PeerID)
	}
	second.expectClosed(t)
	if srv.Sessions() != 1 {
		t.Errorf("%d sessions after the refused duplicate, want the first shard's", srv.Sessions())
	}
}

func TestAcceptShardsRejectsBadFirstFrame(t *testing.T) {
	cases := []struct {
		name  string
		frame any
		kind  session.ErrorKind // "" = an untyped decode error
	}{
		{name: "not an envelope", frame: "garbage"},
		{name: "empty envelope", frame: Envelope{}, kind: session.ErrEmptyEnvelope},
		{name: "ambiguous envelope", frame: Envelope{Hello: ptr(validHello(1)), Bye: &Bye{}}, kind: session.ErrAmbiguousEnvelope},
		{name: "not a hello", frame: Envelope{Report: &Report{}}, kind: session.ErrUnexpectedMessage},
		{name: "hello failing check", frame: Envelope{Hello: &Hello{ShardID: 1}}, kind: ErrBadHello},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := newTestRoot(t)
			peer := dialRoot(t, srv)
			peer.send(t, tc.frame)
			_, err := srv.AcceptShards(1)
			if tc.kind != "" {
				wantKind(t, err, tc.kind)
			} else if err == nil {
				t.Fatal("malformed first frame accepted")
			}
			peer.expectClosed(t)
			if srv.Sessions() != 0 || len(srv.Hellos()) != 0 {
				t.Errorf("rejected peer left %d sessions, %d hellos", srv.Sessions(), len(srv.Hellos()))
			}
		})
	}
}

func TestExecToUnknownShardIsNotConnected(t *testing.T) {
	srv := newTestRoot(t)
	_, err := srv.exec(5, rounds.ShardCmd{Round: 2})
	if pe := wantKind(t, err, ErrNotConnected); pe.PeerID != 5 || pe.Round != 2 {
		t.Errorf("error names shard %d round %d", pe.PeerID, pe.Round)
	}
}

// TestWrongRoundReportDropsShardSession: a protocol violation on the
// exchange surfaces typed, drops exactly that session, and the next
// dispatch to the shard fails fast instead of touching the dead conn.
func TestWrongRoundReportDropsShardSession(t *testing.T) {
	srv := newTestRoot(t)
	bad := dialRoot(t, srv)
	bad.send(t, Envelope{Hello: ptr(validHello(0))})
	good := dialRoot(t, srv)
	good.send(t, Envelope{Hello: ptr(validHello(1))})
	if _, err := srv.AcceptShards(2); err != nil {
		t.Fatal(err)
	}
	answer := func(s *rawShard, shardID, roundSkew int) {
		var env Envelope
		if s.dec.Decode(&env) == nil && env.Cmd != nil {
			s.enc.Encode(Envelope{Report: &Report{ShardID: shardID, Round: env.Cmd.Round + roundSkew}})
		}
	}
	go answer(bad, 0, 1)
	go answer(good, 1, 0)

	_, err := srv.exec(0, rounds.ShardCmd{Round: 3})
	if pe := wantKind(t, err, session.ErrWrongRound); pe.PeerID != 0 || pe.Round != 3 {
		t.Errorf("error names shard %d round %d", pe.PeerID, pe.Round)
	}
	bad.expectClosed(t)
	_, err = srv.exec(0, rounds.ShardCmd{Round: 4})
	wantKind(t, err, ErrNotConnected)

	if _, err := srv.exec(1, rounds.ShardCmd{Round: 3}); err != nil {
		t.Errorf("the other shard's session was disturbed: %v", err)
	}
	if srv.Sessions() != 1 {
		t.Errorf("%d live sessions, want 1", srv.Sessions())
	}
}

// TestWrongDimensionPartialIsBadReport: the root admits a partial of
// the model dimension or none at all. A Report announcing any other
// length is refused on the count — typed bad_report stamped with shard
// and round, that session dropped, the other shard undisturbed.
func TestWrongDimensionPartialIsBadReport(t *testing.T) {
	const dim = 4
	srv := newTestRoot(t)
	bad := dialRoot(t, srv)
	bad.send(t, Envelope{Hello: ptr(validHello(0))})
	good := dialRoot(t, srv)
	good.send(t, Envelope{Hello: ptr(validHello(1))})
	if _, err := srv.AcceptShards(2); err != nil {
		t.Fatal(err)
	}
	if err := srv.setPlan(nil, func() int { return 0 }, dim); err != nil {
		t.Fatal(err)
	}
	// answer replies to one Cmd on its own goroutine; the returned
	// channel closes when it is done with s, so that the next reader of
	// s is ordered after it.
	answer := func(s *rawShard, shardID, floats int) chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			var env Envelope
			if s.dec.Decode(&env) == nil && env.Cmd != nil {
				s.enc.Encode(Envelope{Report: &Report{ShardID: shardID, Round: env.Cmd.Round, ShardReport: rounds.ShardReport{Partial: make([]float64, floats)}}})
			}
		}()
		return done
	}
	badDone := answer(bad, 0, dim+1)
	goodDone := answer(good, 1, dim)

	_, err := srv.exec(0, rounds.ShardCmd{Round: 3, Params: make([]float64, dim)})
	if pe := wantKind(t, err, ErrBadReport); pe.PeerID != 0 || pe.Round != 3 {
		t.Errorf("error names shard %d round %d", pe.PeerID, pe.Round)
	}
	<-badDone
	bad.expectClosed(t)
	_, err = srv.exec(0, rounds.ShardCmd{Round: 4})
	wantKind(t, err, ErrNotConnected)

	rep, err := srv.exec(1, rounds.ShardCmd{Round: 3})
	if err != nil || len(rep.Partial) != dim {
		t.Errorf("the other shard's exchange: %d floats, err %v", len(rep.Partial), err)
	}
	// An empty partial — a shard with nothing to contribute — is admitted.
	<-goodDone
	goodDone = answer(good, 1, 0)
	if rep, err = srv.exec(1, rounds.ShardCmd{Round: 4}); err != nil || rep.Partial != nil {
		t.Errorf("empty partial: %v, err %v", rep, err)
	}
	<-goodDone
	if srv.Sessions() != 1 {
		t.Errorf("%d live sessions, want 1", srv.Sessions())
	}
}

// TestVectorsNeverReachGob: for both vector-bearing messages of this hop
// the gob part of the frame is the same size at every dimension.
func TestVectorsNeverReachGob(t *testing.T) {
	for name, with := range map[string]func(vec []float64) Envelope{
		"cmd": func(vec []float64) Envelope {
			return Envelope{Cmd: &rounds.ShardCmd{Round: 1, Version: 2, Params: vec}}
		},
		"report": func(vec []float64) Envelope {
			return Envelope{Report: &Report{Round: 1, ShardReport: rounds.ShardReport{Samples: 3, Partial: vec}}}
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

func ptr[T any](v T) *T { return &v }

// TestReconnectRefusalsCounted: after start-up, one shard redials with
// an undecodable Hello and another re-offers a changed roster. The
// reconnect loop closes both and counts them in
// haccs_root_shard_registrations_refused_total under the kind
// session.RefusalKind gives (handshake, roster_mismatch).
func TestReconnectRefusalsCounted(t *testing.T) {
	srv := newTestRoot(t)
	reg := telemetry.NewRegistry()
	if _, err := srv.EnableTelemetry(reg, "", nil); err != nil {
		t.Fatal(err)
	}
	dialRoot(t, srv).send(t, Envelope{Hello: ptr(validHello(0))})
	if _, err := srv.AcceptShards(1); err != nil {
		t.Fatal(err)
	}
	srv.ServeReconnects()

	garbage := dialRoot(t, srv)
	garbage.send(t, "garbage")
	garbage.expectClosed(t)
	changed := dialRoot(t, srv)
	changed.send(t, Envelope{Hello: &Hello{ShardID: 0, Clients: []rounds.ShardClient{{ID: 9, Latency: 1}}}})

	refused := func(kind session.ErrorKind) float64 {
		for _, smp := range reg.Snapshot() {
			if smp.Name == "haccs_root_shard_registrations_refused_total" && smp.LabelValue == string(kind) {
				return smp.Value
			}
		}
		return 0
	}
	deadline := time.Now().Add(2 * time.Second)
	for refused("handshake") != 1 || refused(ErrRosterMismatch) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("refused{kind=handshake} = %v, {kind=roster_mismatch} = %v, want 1 each",
				refused("handshake"), refused(ErrRosterMismatch))
		}
		time.Sleep(5 * time.Millisecond)
	}
}
