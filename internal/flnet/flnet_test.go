package flnet

import (
	"errors"
	"sync"
	"testing"

	"haccs/internal/session"
	"haccs/internal/telemetry"
)

// noTrace is the off span context every plain exchange in these tests
// sends.
var noTrace = telemetry.SpanContext{}

// echoTrainer returns the received params shifted by a constant, so the
// test can verify payload integrity end to end.
func echoTrainer(id int, shift float64) Trainer {
	return TrainerFunc(func(round int, params []float64) ([]float64, int, float64) {
		out := make([]float64, len(params))
		for i, v := range params {
			out[i] = v + shift
		}
		return out, 10 * (id + 1), float64(round)
	})
}

func startCluster(t *testing.T, n int) (*Server, []Register, *sync.WaitGroup) {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := &Client{
				Reg:     RegisterFromSummary(id, []float64{float64(id), 1, 2}, nil, float64(id)+0.5, 100+id),
				Trainer: echoTrainer(id, float64(id)),
			}
			if _, err := c.Run(srv.Addr()); err != nil {
				t.Errorf("client %d: %v", id, err)
			}
		}(id)
	}
	regs, err := srv.AcceptClients(n)
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	return srv, regs, &wg
}

func TestRegistrationCarriesSummary(t *testing.T) {
	srv, regs, wg := startCluster(t, 3)
	if len(regs) != 3 {
		t.Fatalf("got %d registrations", len(regs))
	}
	seen := map[int]bool{}
	for _, r := range regs {
		seen[r.ClientID] = true
		if len(r.LabelCounts) != 3 || r.LabelCounts[0] != float64(r.ClientID) {
			t.Errorf("client %d label counts %v", r.ClientID, r.LabelCounts)
		}
		if r.NumSamples != 100+r.ClientID {
			t.Errorf("client %d samples %d", r.ClientID, r.NumSamples)
		}
		if r.SummaryKind != 0 {
			t.Errorf("client %d kind %d", r.ClientID, r.SummaryKind)
		}
		h := r.LabelHistogram()
		if h.Bins() != 3 {
			t.Errorf("histogram reconstruction broken")
		}
	}
	if len(seen) != 3 {
		t.Error("duplicate client IDs")
	}
	if len(srv.Registrations()) != 3 {
		t.Error("Registrations snapshot wrong")
	}
	srv.Close()
	wg.Wait()
}

func TestRoundTripTraining(t *testing.T) {
	srv, _, wg := startCluster(t, 4)
	params := []float64{1, 2, 3}
	for _, id := range []int{1, 3} {
		rep, err := srv.Train(id, 7, params, noTrace)
		if err != nil {
			t.Fatalf("train client %d: %v", id, err)
		}
		if rep.Round != 7 {
			t.Errorf("reply round %d", rep.Round)
		}
		if rep.Loss != 7 {
			t.Errorf("reply loss %v", rep.Loss)
		}
		for i, v := range rep.Params {
			if v != params[i]+float64(rep.ClientID) {
				t.Errorf("client %d payload corrupted: %v", rep.ClientID, rep.Params)
			}
		}
		if rep.NumSamples != 10*(rep.ClientID+1) {
			t.Errorf("client %d samples %d", rep.ClientID, rep.NumSamples)
		}
	}
	srv.Close()
	wg.Wait()
}

func TestMultipleRoundsSameClients(t *testing.T) {
	srv, _, wg := startCluster(t, 2)
	for round := 0; round < 5; round++ {
		for id := 0; id < 2; id++ {
			rep, err := srv.Train(id, round, []float64{float64(round)}, noTrace)
			if err != nil {
				t.Fatalf("round %d client %d: %v", round, id, err)
			}
			if rep.Params[0] != float64(round)+float64(rep.ClientID) {
				t.Fatalf("round %d corrupt payload", round)
			}
		}
	}
	srv.Close()
	wg.Wait()
}

func TestTrainUnknownClient(t *testing.T) {
	srv, _, wg := startCluster(t, 1)
	_, err := srv.Train(99, 0, []float64{1}, noTrace)
	var ee *session.ProtocolError
	if !errors.As(err, &ee) || ee.Kind != ErrNotRegistered {
		t.Errorf("err = %v, want ErrNotRegistered", err)
	}
	srv.Close()
	wg.Wait()
}

func TestClientShutdownCleanly(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var rounds int
	var runErr error
	go func() {
		defer close(done)
		c := &Client{
			Reg:     RegisterFromSummary(0, []float64{1}, nil, 1, 10),
			Trainer: echoTrainer(0, 0),
		}
		rounds, runErr = c.Run(srv.Addr())
	}()
	if _, err := srv.AcceptClients(1); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Train(0, 0, []float64{5}, noTrace); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	<-done
	if runErr != nil {
		t.Errorf("client exit error: %v", runErr)
	}
	if rounds != 1 {
		t.Errorf("client served %d rounds", rounds)
	}
}

func TestDialFailure(t *testing.T) {
	c := &Client{Reg: Register{}, Trainer: echoTrainer(0, 0)}
	if _, err := c.Run("127.0.0.1:1"); err == nil {
		t.Error("expected dial error")
	}
}

func TestRegisterFromSummaryPXY(t *testing.T) {
	fc := [][]float64{{1, 2}, nil, {3, 4}}
	r := RegisterFromSummary(5, nil, fc, 2.5, 50)
	if r.SummaryKind != 1 {
		t.Errorf("kind = %d", r.SummaryKind)
	}
	if r.LatencyEstimate != 2.5 || r.NumSamples != 50 {
		t.Error("metadata lost")
	}
	if len(r.FeatureCounts) != 3 || r.FeatureCounts[1] != nil {
		t.Error("feature counts mangled")
	}
}

func TestSummaryRefreshPiggyback(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c := &Client{
			Reg:     RegisterFromSummary(0, []float64{10, 0}, nil, 1, 10),
			Trainer: echoTrainer(0, 0),
			SummaryRefresh: func(round int) []float64 {
				if round == 2 {
					// Distribution shifted at round 2.
					return []float64{0, 10}
				}
				return nil
			},
		}
		if _, err := c.Run(srv.Addr()); err != nil {
			t.Errorf("client: %v", err)
		}
	}()
	if _, err := srv.AcceptClients(1); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		rep, err := srv.Train(0, round, []float64{1}, noTrace)
		if err != nil {
			t.Fatal(err)
		}
		got := rep.UpdatedLabelCounts
		if round == 2 {
			if len(got) != 2 || got[1] != 10 {
				t.Errorf("round 2 refresh missing: %v", got)
			}
		} else if got != nil {
			t.Errorf("round %d unexpected refresh %v", round, got)
		}
	}
	srv.Close()
	<-done
}
