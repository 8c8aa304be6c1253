package flnet

import (
	"reflect"
	"testing"
	"time"
)

// pickStrategy selects a scripted ID list each round, filtered by
// availability (so clients the driver marked dead drop out instead of
// tripping the selection validation).
type pickStrategy struct {
	sel     [][]int
	updates []pickUpdate
}

type pickUpdate struct {
	round    int
	selected []int
	losses   []float64
}

func (s *pickStrategy) Select(round int, available []bool, k int) []int {
	if round >= len(s.sel) {
		return nil
	}
	var out []int
	for _, id := range s.sel[round] {
		if available[id] {
			out = append(out, id)
		}
	}
	return out
}

func (s *pickStrategy) Update(round int, selected []int, losses []float64) {
	s.updates = append(s.updates, pickUpdate{
		round:    round,
		selected: append([]int(nil), selected...),
		losses:   append([]float64(nil), losses...),
	})
}

func TestCoordinatorRoundOverTCP(t *testing.T) {
	srv, _, wg := startCluster(t, 3)
	strat := &pickStrategy{sel: [][]int{{0, 1, 2}}}
	coord, err := NewCoordinator(srv, CoordinatorConfig{ClientsPerRound: 3}, strat, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	out := coord.RunRound(0)
	if !out.Aggregated || !reflect.DeepEqual(out.Reporters, []int{0, 1, 2}) {
		t.Fatalf("outcome = %+v, want all three reporting", out)
	}
	// echoTrainer shifts params by the client ID with 10*(id+1) samples:
	// FedAvg = (10*0 + 20*1 + 30*2) / 60 = 4/3 per coordinate.
	want := 4.0 / 3.0
	for i, v := range coord.Global() {
		if v != want {
			t.Fatalf("global[%d] = %v, want %v", i, v, want)
		}
	}
	// startCluster registers latency id+0.5; slowest selected is 2.5.
	if coord.Clock() != 2.5 {
		t.Fatalf("clock = %v, want 2.5", coord.Clock())
	}
	srv.Close()
	wg.Wait()
}

func TestCoordinatorDeadlineCutsStragglerOverTCP(t *testing.T) {
	srv, _, wg := startCluster(t, 3)
	strat := &pickStrategy{sel: [][]int{{0, 1, 2}}}
	// Registered latencies are 0.5, 1.5, 2.5: a deadline of 2 cuts
	// client 2 even though its TCP exchange completes.
	coord, err := NewCoordinator(srv, CoordinatorConfig{ClientsPerRound: 3, Deadline: 2}, strat, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	out := coord.RunRound(0)
	if !reflect.DeepEqual(out.Reporters, []int{0, 1}) || !reflect.DeepEqual(out.Cut, []int{2}) {
		t.Fatalf("reporters = %v cut = %v, want [0 1] / [2]", out.Reporters, out.Cut)
	}
	// Renormalized over reporters: (10*0 + 20*1) / 30 = 2/3.
	want := 2.0 / 3.0
	for i, v := range coord.Global() {
		if v != want {
			t.Fatalf("global[%d] = %v, want %v (renormalized over reporters)", i, v, want)
		}
	}
	if out.RoundVirtual != 2 || coord.Clock() != 2 {
		t.Fatalf("roundVirtual = %v clock = %v, want the deadline 2", out.RoundVirtual, coord.Clock())
	}
	// Update sees reporters only, in selection order.
	if len(strat.updates) != 1 || !reflect.DeepEqual(strat.updates[0].selected, []int{0, 1}) {
		t.Fatalf("Update calls = %+v, want one call with [0 1]", strat.updates)
	}
	if !reflect.DeepEqual(strat.updates[0].losses, []float64{0, 0}) {
		t.Fatalf("losses = %v, want reporters' round-0 losses", strat.updates[0].losses)
	}
	srv.Close()
	wg.Wait()
}

// TestClientDeathMidRound kills a client's connection while its
// TrainRequest is in flight: the coordinator must aggregate the
// survivors, mark the dead client failed, and keep running rounds
// without it.
func TestClientDeathMidRound(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := acceptAsync(srv, 3)
	// Client 0 is the killer: it registers, then slams the connection
	// shut on the first TrainRequest instead of replying.
	killer := dialRaw(t, srv.Addr())
	killer.register(t, 0)
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		var env Envelope
		killer.conn.SetReadDeadline(time.Now().Add(peerWait))
		if err := killer.dec.Decode(&env); err != nil || env.Request == nil {
			t.Errorf("killer: no TrainRequest within %v: %+v, %v", peerWait, env, err)
		}
		killer.conn.Close()
	}()
	// Clients 1 and 2 behave.
	clientDone := make(chan struct{})
	go func() {
		defer close(clientDone)
		for id := 1; id <= 2; id++ {
			go func(id int) {
				c := &Client{
					Reg:     RegisterFromSummary(id, []float64{1}, nil, float64(id), 10),
					Trainer: echoTrainer(id, float64(id)),
				}
				_, _ = c.Run(srv.Addr())
			}(id)
		}
	}()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	<-clientDone

	strat := &pickStrategy{sel: [][]int{{0, 1, 2}, {0, 1, 2}}}
	coord, err := NewCoordinator(srv, CoordinatorConfig{ClientsPerRound: 3}, strat, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}

	out := coord.RunRound(0)
	<-killed
	if !reflect.DeepEqual(out.Failed, []int{0}) {
		t.Fatalf("failed = %v, want [0]", out.Failed)
	}
	if !reflect.DeepEqual(out.Reporters, []int{1, 2}) || !out.Aggregated {
		t.Fatalf("reporters = %v aggregated = %v, want survivors [1 2]", out.Reporters, out.Aggregated)
	}
	// FedAvg over survivors: (20*1 + 30*2) / 50 = 1.6.
	for i, v := range coord.Global() {
		if v != 1.6 {
			t.Fatalf("global[%d] = %v, want 1.6", i, v)
		}
	}
	if !coord.Dead(0) {
		t.Fatal("client 0 not marked dead")
	}

	// The next round proceeds without the dead client — no wedge, no
	// panic, strategy sees it unavailable.
	out = coord.RunRound(1)
	if !reflect.DeepEqual(out.Selected, []int{1, 2}) || len(out.Failed) != 0 {
		t.Fatalf("round 1 outcome = %+v, want clean [1 2] round", out)
	}
	srv.Close()
}

func TestCoordinatorSummaryForwarding(t *testing.T) {
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
				if round == 1 {
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
	var got [][]float64
	strat := &pickStrategy{sel: [][]int{{0}, {0}, {0}}}
	coord, err := NewCoordinator(srv, CoordinatorConfig{
		ClientsPerRound: 1,
		OnSummary: func(id int, counts []float64) {
			if id != 0 {
				t.Errorf("summary from client %d", id)
			}
			got = append(got, counts)
		},
	}, strat, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		coord.RunRound(round)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], []float64{0, 10}) {
		t.Fatalf("forwarded summaries = %v, want the round-1 refresh only", got)
	}
	srv.Close()
	<-done
}

func TestNewCoordinatorRejectsSparseIDs(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	errc := acceptAsync(srv, 1)
	dialRaw(t, srv.Addr()).register(t, 7) // only client, ID outside [0,1)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinator(srv, CoordinatorConfig{ClientsPerRound: 1}, &pickStrategy{}, []float64{0}); err == nil {
		t.Fatal("expected dense-ID error")
	}
}
