package flnet

import (
	"bytes"
	"errors"
	"math"
	"net"
	"testing"

	"haccs/internal/session"
	"haccs/internal/telemetry"
)

// TestEnvelopeTraceContextRoundTrip checks the gob wire form preserves
// the span context and the piggybacked span bit-exactly.
func TestEnvelopeTraceContextRoundTrip(t *testing.T) {
	req := Envelope{Request: &TrainRequest{
		Round:  3,
		Params: []float64{1, 2},
		Trace:  telemetry.SpanContext{TraceID: 0xfeedface, SpanID: 0xdeadbeef},
	}}
	rep := Envelope{Reply: &TrainReply{
		ClientID: 1,
		Round:    3,
		TrainSpan: &WireSpan{
			Name:     "client_train",
			TraceID:  0xfeedface,
			SpanID:   0x1234,
			ParentID: 0xdeadbeef,
			DurSec:   0.125,
		},
	}}
	var buf bytes.Buffer
	enc := session.NewCodec(&buf)
	dec := session.NewCodec(&buf)
	for _, env := range []Envelope{req, rep} {
		if err := enc.Encode(env); err != nil {
			t.Fatal(err)
		}
	}
	var gotReq, gotRep Envelope
	if err := dec.Decode(&gotReq); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&gotRep); err != nil {
		t.Fatal(err)
	}
	if got := gotReq.Request.Trace; got != req.Request.Trace {
		t.Errorf("request trace = %+v, want %+v", got, req.Request.Trace)
	}
	ws := gotRep.Reply.TrainSpan
	if ws == nil || *ws != *rep.Reply.TrainSpan {
		t.Errorf("reply span = %+v, want %+v", ws, rep.Reply.TrainSpan)
	}
}

// TestCheckWireSpan covers every rejection path of the reply-span
// validation as *session.ProtocolError with the dedicated kind.
func TestCheckWireSpan(t *testing.T) {
	sc := telemetry.SpanContext{TraceID: 0xaa, SpanID: 0xbb}
	good := WireSpan{Name: "client_train", TraceID: 0xaa, SpanID: 0xcc, ParentID: 0xbb, DurSec: 0.5}
	cases := []struct {
		name string
		ws   *WireSpan
		sc   telemetry.SpanContext
		bad  bool
	}{
		{"nil span traced request", nil, sc, false},
		{"nil span untraced request", nil, telemetry.SpanContext{}, false},
		{"valid", &good, sc, false},
		{"unsolicited", &good, telemetry.SpanContext{}, true},
		{"zero span id", &WireSpan{TraceID: 0xaa, ParentID: 0xbb, DurSec: 1}, sc, true},
		{"wrong trace", &WireSpan{TraceID: 0x99, SpanID: 0xcc, ParentID: 0xbb, DurSec: 1}, sc, true},
		{"wrong parent", &WireSpan{TraceID: 0xaa, SpanID: 0xcc, ParentID: 0x99, DurSec: 1}, sc, true},
		{"nan duration", &WireSpan{TraceID: 0xaa, SpanID: 0xcc, ParentID: 0xbb, DurSec: math.NaN()}, sc, true},
		{"inf duration", &WireSpan{TraceID: 0xaa, SpanID: 0xcc, ParentID: 0xbb, DurSec: math.Inf(1)}, sc, true},
		{"negative duration", &WireSpan{TraceID: 0xaa, SpanID: 0xcc, ParentID: 0xbb, DurSec: -1}, sc, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkWireSpan(tc.ws, 3, 7, tc.sc)
			if !tc.bad {
				if err != nil {
					t.Fatalf("checkWireSpan = %v, want nil", err)
				}
				return
			}
			var ee *session.ProtocolError
			if !errors.As(err, &ee) || ee.Kind != ErrBadTraceContext {
				t.Fatalf("checkWireSpan = %v, want ErrBadTraceContext", err)
			}
			if ee.PeerID != 3 || ee.Round != 7 {
				t.Fatalf("error context = client %d round %d", ee.PeerID, ee.Round)
			}
		})
	}
}

// TestMisbehavingSpanDropsSession is the wire form: a reply whose
// piggybacked span violates the trace contract must fail Train with
// ErrBadTraceContext and drop the session.
func TestMisbehavingSpanDropsSession(t *testing.T) {
	cases := []struct {
		name string
		span func(req *TrainRequest) *WireSpan
	}{
		{"unsolicited span", func(*TrainRequest) *WireSpan {
			// The request below carries no trace; any span is unsolicited.
			return &WireSpan{Name: "client_train", TraceID: 1, SpanID: 2, ParentID: 3, DurSec: 1}
		}},
	}
	tracedCases := []struct {
		name string
		span func(req *TrainRequest) *WireSpan
	}{
		{"wrong trace", func(req *TrainRequest) *WireSpan {
			return &WireSpan{TraceID: req.Trace.TraceID + 1, SpanID: 2, ParentID: req.Trace.SpanID, DurSec: 1}
		}},
		{"wrong parent", func(req *TrainRequest) *WireSpan {
			return &WireSpan{TraceID: req.Trace.TraceID, SpanID: 2, ParentID: req.Trace.SpanID + 1, DurSec: 1}
		}},
		{"nan duration", func(req *TrainRequest) *WireSpan {
			return &WireSpan{TraceID: req.Trace.TraceID, SpanID: 2, ParentID: req.Trace.SpanID, DurSec: math.NaN()}
		}},
	}
	run := func(t *testing.T, sc telemetry.SpanContext, span func(req *TrainRequest) *WireSpan) {
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
				_ = raw.enc.Encode(Envelope{Reply: &TrainReply{
					ClientID:  0,
					Round:     req.Round,
					TrainSpan: span(req),
				}})
			}
		}()
		_, err = srv.Train(0, 4, []float64{1}, sc)
		<-done
		var ee *session.ProtocolError
		if !errors.As(err, &ee) || ee.Kind != ErrBadTraceContext {
			t.Fatalf("Train err = %v, want ErrBadTraceContext", err)
		}
		if _, err := srv.Train(0, 5, []float64{1}, sc); !errors.As(err, &ee) || ee.Kind != ErrNotRegistered {
			t.Fatalf("post-violation Train err = %v, want ErrNotRegistered", err)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { run(t, telemetry.SpanContext{}, tc.span) })
	}
	sc := telemetry.SpanContext{TraceID: 0x700, SpanID: 0x701}
	for _, tc := range tracedCases {
		t.Run(tc.name, func(t *testing.T) { run(t, sc, tc.span) })
	}
}

// TestClientRejectsHalfSetContext checks the device side of the
// contract: a TrainRequest with a half-set span context ends the
// session with ErrBadTraceContext instead of training.
func TestClientRejectsHalfSetContext(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		c := &Client{
			Reg:     RegisterFromSummary(0, []float64{1}, nil, 1, 10),
			Trainer: echoTrainer(0, 0),
		}
		_, err := c.Run(ln.Addr().String())
		done <- err
	}()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := session.NewCodec(conn)
	dec := enc
	var reg Envelope
	if err := dec.Decode(&reg); err != nil || reg.Register == nil {
		t.Fatalf("registration: %v %+v", err, reg)
	}
	if err := enc.Encode(Envelope{Request: &TrainRequest{
		Round:  0,
		Params: []float64{1},
		Trace:  telemetry.SpanContext{TraceID: 5}, // SpanID missing
	}}); err != nil {
		t.Fatal(err)
	}
	var ee *session.ProtocolError
	if err := <-done; !errors.As(err, &ee) || ee.Kind != ErrBadTraceContext {
		t.Fatalf("client exit = %v, want ErrBadTraceContext", err)
	}
}

// TestTrainShipsClientSpan checks the happy path of one traced
// exchange: the reply carries a client_train span minted by the client,
// in the request's trace, parented under the request's span.
func TestTrainShipsClientSpan(t *testing.T) {
	srv, _, wg := startCluster(t, 1)
	sc := telemetry.SpanContext{TraceID: telemetry.NewSpanID(), SpanID: telemetry.NewSpanID()}
	rep, err := srv.Train(0, 0, []float64{1}, sc)
	if err != nil {
		t.Fatal(err)
	}
	ws := rep.TrainSpan
	if ws == nil {
		t.Fatal("traced request got no TrainSpan back")
	}
	if ws.Name != "client_train" || ws.TraceID != sc.TraceID || ws.ParentID != sc.SpanID {
		t.Errorf("span = %+v, want client_train under %+v", ws, sc)
	}
	if ws.SpanID == 0 || ws.SpanID == sc.SpanID {
		t.Errorf("span ID %x not freshly minted", ws.SpanID)
	}
	if ws.DurSec < 0 {
		t.Errorf("duration %v", ws.DurSec)
	}

	// Untraced request: no span rides back.
	rep, err = srv.Train(0, 1, []float64{1}, telemetry.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TrainSpan != nil {
		t.Errorf("untraced request got span %+v", rep.TrainSpan)
	}
	srv.Close()
	wg.Wait()
}

// TestCoordinatorSpanTreeOverTCP is the acceptance check for wire
// propagation: a TCP round recorded into the flight-recorder JSONL
// yields a span tree where each client's local-train span is a child of
// the coordinator's per-client train span, all within the round root's
// trace.
func TestCoordinatorSpanTreeOverTCP(t *testing.T) {
	var buf bytes.Buffer
	sink := telemetry.NewJSONLSink(&buf)
	spans := telemetry.NewSpanTracer(sink, nil)

	srv, _, wg := startCluster(t, 3)
	strat := &pickStrategy{sel: [][]int{{0, 1, 2}}}
	coord, err := NewCoordinator(srv, CoordinatorConfig{ClientsPerRound: 3, Spans: spans}, strat, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	out := coord.RunRound(0)
	if !out.Aggregated {
		t.Fatalf("round failed: %+v", out)
	}
	srv.Close()
	wg.Wait()

	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var root telemetry.Event
	trainSpan := map[int]telemetry.Event{}  // coordinator side, by client
	clientSpan := map[int]telemetry.Event{} // foreign, by client
	for _, e := range events {
		if e.Kind != telemetry.KindSpan {
			continue
		}
		switch e.Span {
		case "round":
			root = e
		case "train":
			trainSpan[e.Client] = e
		case "client_train":
			clientSpan[e.Client] = e
		}
	}
	if root.SpanID == "" || root.ParentID != "" {
		t.Fatalf("round root span missing or parented: %+v", root)
	}
	for id := 0; id < 3; id++ {
		ts, ok := trainSpan[id]
		if !ok {
			t.Fatalf("no coordinator train span for client %d", id)
		}
		cs, ok := clientSpan[id]
		if !ok {
			t.Fatalf("no client_train span for client %d", id)
		}
		if cs.ParentID != ts.SpanID {
			t.Errorf("client %d: client_train parent %s, want coordinator train span %s", id, cs.ParentID, ts.SpanID)
		}
		if cs.TraceID != root.TraceID || ts.TraceID != root.TraceID {
			t.Errorf("client %d: traces %s/%s, want root trace %s", id, cs.TraceID, ts.TraceID, root.TraceID)
		}
		if cs.StartSec != -1 {
			t.Errorf("client %d: foreign span start %v, want -1", id, cs.StartSec)
		}
		if cs.Round != 0 {
			t.Errorf("client %d: span round %d", id, cs.Round)
		}
	}
}
