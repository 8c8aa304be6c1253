package flnet

import (
	"errors"
	"math"
	"testing"

	"haccs/internal/fleet"
	"haccs/internal/session"
	"haccs/internal/telemetry"
)

func TestCheckClientStats(t *testing.T) {
	cases := []struct {
		name string
		st   *fleet.ClientStats
		ok   bool
	}{
		{"nil", nil, true},
		{"valid", &fleet.ClientStats{TrainWallSec: 0.25, Samples: 10, Loss: 1.2, Epochs: 1}, true},
		{"zero wall", &fleet.ClientStats{Samples: 1}, true},
		{"nan wall", &fleet.ClientStats{TrainWallSec: math.NaN(), Samples: 1}, false},
		{"inf wall", &fleet.ClientStats{TrainWallSec: math.Inf(1), Samples: 1}, false},
		{"negative wall", &fleet.ClientStats{TrainWallSec: -0.1, Samples: 1}, false},
		{"zero samples", &fleet.ClientStats{TrainWallSec: 1}, false},
		{"negative samples", &fleet.ClientStats{TrainWallSec: 1, Samples: -3}, false},
		{"nan loss", &fleet.ClientStats{TrainWallSec: 1, Samples: 1, Loss: math.NaN()}, false},
		{"inf loss", &fleet.ClientStats{TrainWallSec: 1, Samples: 1, Loss: math.Inf(-1)}, false},
		{"negative epochs", &fleet.ClientStats{TrainWallSec: 1, Samples: 1, Epochs: -1}, false},
	}
	for _, c := range cases {
		err := checkClientStats(c.st, 3, 7)
		if c.ok {
			if err != nil {
				t.Errorf("%s: err = %v, want nil", c.name, err)
			}
			continue
		}
		var ee *session.ProtocolError
		if !errors.As(err, &ee) || ee.Kind != ErrBadClientStats || ee.PeerID != 3 || ee.Round != 7 {
			t.Errorf("%s: err = %v, want ErrBadClientStats for client 3 round 7", c.name, err)
		}
	}
}

// TestMalformedStatsDropSession mirrors TestMisbehavingSpanDropsSession:
// a stats block that violates the wire contract is a protocol violation
// that fails the Train with a typed error and drops the session.
func TestMalformedStatsDropSession(t *testing.T) {
	cases := []struct {
		name  string
		stats *fleet.ClientStats
	}{
		{"nan wall", &fleet.ClientStats{TrainWallSec: math.NaN(), Samples: 1}},
		{"zero samples", &fleet.ClientStats{TrainWallSec: 1}},
		{"inf loss", &fleet.ClientStats{TrainWallSec: 1, Samples: 1, Loss: math.Inf(1)}},
		{"negative epochs", &fleet.ClientStats{TrainWallSec: 1, Samples: 1, Epochs: -2}},
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
						ClientID: 0,
						Round:    req.Round,
						Stats:    c.stats,
					}})
				}
			}()
			_, err = srv.Train(0, 4, []float64{1}, telemetry.SpanContext{})
			<-done
			var ee *session.ProtocolError
			if !errors.As(err, &ee) || ee.Kind != ErrBadClientStats {
				t.Fatalf("Train err = %v, want ErrBadClientStats", err)
			}
			if _, err := srv.Train(0, 5, []float64{1}, telemetry.SpanContext{}); !errors.As(err, &ee) || ee.Kind != ErrNotRegistered {
				t.Fatalf("post-violation Train err = %v, want ErrNotRegistered", err)
			}
		})
	}
}

// TestClientStatsFeedFleetRegistryOverTCP runs a real coordinator round
// and checks that the clients' self-reported stats blocks land in the
// fleet registry: wire wall time (not the registered virtual latency)
// feeds the latency EWMA, and the sample counters accumulate.
func TestClientStatsFeedFleetRegistryOverTCP(t *testing.T) {
	srv, _, wg := startCluster(t, 3)
	strat := &pickStrategy{sel: [][]int{{0, 1, 2}, {0, 1, 2}}}
	reg := fleet.NewRegistry(3, fleet.Options{})
	coord, err := NewCoordinator(srv, CoordinatorConfig{ClientsPerRound: 3, Fleet: reg}, strat, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	coord.RunRound(0)
	coord.RunRound(1)
	st := reg.State()
	if st.Rounds != 2 || st.TotalSelected != 6 {
		t.Fatalf("registry header = %+v", st)
	}
	for id, c := range st.Clients {
		if c.Selected != 2 || c.Reported != 2 {
			t.Errorf("client %d counters = %+v", id, c)
		}
		// echoTrainer reports 10*(id+1) samples per round.
		if want := 2 * 10 * (id + 1); c.Samples != want {
			t.Errorf("client %d samples = %d, want %d", id, c.Samples, want)
		}
		// The EWMA is the client-measured wall time of a local echo:
		// tiny but finite, and nothing like the registered id+0.5
		// virtual latency.
		if c.LatencyEWMA < 0 || c.LatencyEWMA > 0.25 || math.IsNaN(c.LatencyEWMA) {
			t.Errorf("client %d latency EWMA = %v, want small wall time", id, c.LatencyEWMA)
		}
	}
	srv.Close()
	wg.Wait()
}
