package flnet

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"haccs/internal/session"
)

// TestBadUpdateDropsSession feeds Server.Train replies that are
// well-formed envelopes carrying a model update FedAvg cannot take: each
// must fail with the typed bad_update kind and drop the session, and the
// valid one must pass.
func TestBadUpdateDropsSession(t *testing.T) {
	cases := []struct {
		name    string
		params  []float64
		samples int
		bad     bool
	}{
		{"wrong length", []float64{1, 2, 3}, 10, true},
		{"empty params", nil, 10, true},
		{"zero samples", []float64{1, 2}, 0, true},
		{"negative samples", []float64{1, 2}, -1, true},
		{"nan", []float64{1, math.NaN()}, 10, true},
		{"plus inf", []float64{math.Inf(1), 2}, 10, true},
		{"minus inf", []float64{1, math.Inf(-1)}, 10, true},
		{"valid", []float64{1, -2}, 10, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
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
						ClientID: 0, Round: req.Round, Params: c.params, NumSamples: c.samples,
					}})
				}
			}()
			reply, err := srv.Train(0, 4, []float64{0, 0}, noTrace)
			<-done
			if !c.bad {
				if err != nil || !reflect.DeepEqual(reply.Params, c.params) {
					t.Fatalf("Train = %+v, %v; want the update accepted", reply, err)
				}
				return
			}
			var ee *session.ProtocolError
			if !errors.As(err, &ee) || ee.Kind != ErrBadUpdate || ee.PeerID != 0 || ee.Round != 4 {
				t.Fatalf("Train err = %v, want bad_update for client 0 round 4", err)
			}
			if _, err := srv.Train(0, 5, []float64{0, 0}, noTrace); !errors.As(err, &ee) || ee.Kind != ErrNotRegistered {
				t.Fatalf("post-violation Train err = %v, want not_registered", err)
			}
		})
	}
}

// TestCheckUpdateFiniteness: the branch-free scan refuses a NaN or ±Inf
// wherever it sits — first, last, inside a four-float group or in the
// tail the groups leave — with the text naming the first bad coordinate,
// and accepts every finite value, however extreme.
func TestCheckUpdateFiniteness(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, c := range []struct{ dim, at int }{
			{1, 0}, {4, 0}, {4, 3}, {8, 0}, {8, 5}, {8, 7}, // no tail
			{5, 4}, {7, 4}, {7, 5}, {7, 6}, {4099, 4098}, // in the tail, the last one included
		} {
			params := make([]float64, c.dim)
			for i := range params {
				params[i] = float64(i) - 1.5
			}
			params[c.at] = bad
			if c.at+1 < c.dim {
				params[c.dim-1] = math.NaN() // a later bad coordinate is not the one named
			}
			err := checkUpdate(&TrainReply{ClientID: 2, Round: 5, Params: params, NumSamples: 1}, c.dim)
			var ee *session.ProtocolError
			want := fmt.Sprintf("update coordinate %d is %v", c.at, bad)
			if !errors.As(err, &ee) || ee.Kind != ErrBadUpdate || ee.Detail != want || ee.PeerID != 2 || ee.Round != 5 {
				t.Errorf("%v at %d of %d: err = %v, want bad_update %q", bad, c.at, c.dim, err, want)
			}
		}
	}
	finite := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), math.MaxFloat64, -math.MaxFloat64}
	for dim := 1; dim <= 2*len(finite)+1; dim++ {
		params := make([]float64, dim)
		for i := range params {
			params[i] = finite[i%len(finite)]
		}
		if err := checkUpdate(&TrainReply{Params: params, NumSamples: 1}, dim); err != nil {
			t.Errorf("finite update of %d coordinates refused: %v", dim, err)
		}
	}
}

// TestCoordinatorSurvivesWrongLengthUpdate runs a coordinator round in
// which one client replies with an update of the wrong dimension: the
// client ends the round as Failed, the round completes, and the other
// reporters aggregate. Before the wire check this reply reached FedAvg
// and panicked the coordinator.
func TestCoordinatorSurvivesWrongLengthUpdate(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	errc := acceptAsync(srv, 3)
	trainers := []Trainer{
		TrainerFunc(func(_ int, params []float64) ([]float64, int, float64) {
			return make([]float64, len(params)+1), 10, 0
		}),
		echoTrainer(1, 1),
		echoTrainer(2, 2),
	}
	for id, tr := range trainers {
		c := &Client{Reg: RegisterFromSummary(id, []float64{1}, nil, float64(id)+1, 10), Trainer: tr}
		go func() { _, _ = c.Run(srv.Addr()) }()
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	strat := &pickStrategy{sel: [][]int{{0, 1, 2}}}
	coord, err := NewCoordinator(srv, CoordinatorConfig{ClientsPerRound: 3}, strat, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	out := coord.RunRound(0)
	if !reflect.DeepEqual(out.Failed, []int{0}) || !reflect.DeepEqual(out.Reporters, []int{1, 2}) || !out.Aggregated {
		t.Fatalf("outcome = %+v, want client 0 failed and [1 2] aggregated", out)
	}
	// FedAvg over the survivors: (20*1 + 30*2) / 50 = 1.6.
	for i, v := range coord.Global() {
		if v != 1.6 {
			t.Fatalf("global[%d] = %v, want 1.6", i, v)
		}
	}
}
