package flnet

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"haccs/internal/telemetry"
)

// TestCoordinatorTelemetryEndpoint runs rounds against an instrumented
// coordinator and scrapes the mounted /metrics and /debug/trace
// endpoints.
func TestCoordinatorTelemetryEndpoint(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	ring := telemetry.NewRingSink(64)
	addr, err := srv.EnableTelemetry(reg, ring, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		c := &Client{
			Reg:     RegisterFromSummary(0, []float64{1, 2}, nil, 1, 10),
			Trainer: echoTrainer(0, 0),
		}
		if _, err := c.Run(srv.Addr()); err != nil {
			t.Errorf("client: %v", err)
		}
	}()
	if _, err := srv.AcceptClients(1); err != nil {
		t.Fatal(err)
	}
	strat := &pickStrategy{sel: [][]int{{0}, {0}, {0}}}
	coord, err := NewCoordinator(srv, CoordinatorConfig{
		ClientsPerRound: 1,
		Tracer:          ring,
		Metrics:         reg,
	}, strat, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		coord.RunRound(round)
	}

	body := httpGet(t, addr, "/metrics")
	for _, want := range []string{
		"haccs_net_rounds_total 3",
		"haccs_net_registered_clients 1",
		"haccs_net_round_seconds_count 3",
		// The shared round driver's collectors flow into the same
		// registry as the coordinator's net series.
		"haccs_rounds_total 3",
		"haccs_clients_selected_total 3",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}

	trace := httpGet(t, addr, "/debug/trace")
	events, err := telemetry.ReadJSONL(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	var rounds []int
	for _, e := range events {
		if e.Kind == telemetry.KindNetRound {
			rounds = append(rounds, e.Round)
		}
	}
	if len(rounds) != 3 || rounds[0] != 0 || rounds[2] != 2 {
		t.Errorf("net_round trail = %v", rounds)
	}

	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	<-done
	if got := reg.Gauge("haccs_net_registered_clients", "").Value(); got != 0 {
		t.Errorf("registered gauge after shutdown = %v, want 0", got)
	}
}

func httpGet(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestShutdownLeavesNoGoroutines is the graceful-shutdown audit: a
// full coordinator lifecycle — telemetry endpoint, clients, rounds,
// shutdown — must return the process to its baseline goroutine count
// (goleak-style manual counting; the runtime needs a few scheduler
// ticks to reap exited goroutines, hence the retry loop).
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()

	for iter := 0; iter < 3; iter++ {
		srv, regs, wg := startCluster(t, 4)
		if len(regs) != 4 {
			t.Fatalf("got %d registrations", len(regs))
		}
		reg := telemetry.NewRegistry()
		ring := telemetry.NewRingSink(16)
		if _, err := srv.EnableTelemetry(reg, ring, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		coord, err := NewCoordinator(srv, CoordinatorConfig{
			ClientsPerRound: 4,
			Tracer:          ring,
			Metrics:         reg,
		}, &pickStrategy{sel: [][]int{{0, 1, 2, 3}}}, []float64{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		if out := coord.RunRound(0); !out.Aggregated {
			t.Fatal("round did not aggregate")
		}
		if err := srv.Shutdown(); err != nil {
			t.Fatal(err)
		}
		// Shutdown must be idempotent.
		if err := srv.Shutdown(); err != nil {
			t.Errorf("second shutdown: %v", err)
		}
		wg.Wait()
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		runtime.Gosched()
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Errorf("goroutines leaked: baseline %d, now %d\n%s", baseline, runtime.NumGoroutine(), buf[:n])
}
