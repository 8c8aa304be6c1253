package flnet

import (
	"net"
	"testing"
	"time"

	"haccs/internal/telemetry"
)

// metricValue scrapes one unlabelled series off the registry.
func metricValue(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

func TestServeReconnectsReadmitsDroppedClient(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Close()
	reg := telemetry.NewRegistry()
	if _, err := srv.EnableTelemetry(reg, nil, ""); err != nil {
		t.Fatalf("telemetry: %v", err)
	}

	// Seat one client, then hang up from the client side without a
	// protocol goodbye — the server still holds the stale session.
	conn1, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c := &Client{
		Reg:     RegisterFromSummary(0, []float64{1, 2}, nil, 0.5, 100),
		Trainer: echoTrainer(0, 0),
	}
	done := make(chan struct{})
	go func() { defer close(done); c.Serve(conn1) }()
	if _, err := srv.AcceptClients(1); err != nil {
		t.Fatalf("accept: %v", err)
	}
	srv.ServeReconnects()
	srv.ServeReconnects() // idempotent
	conn1.Close()
	<-done

	// Redial: the reconnect loop must replace the stale session, and
	// training over the fresh session must work.
	conn2, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("redial: %v", err)
	}
	go c.Serve(conn2)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := srv.Train(0, 1, []float64{1, 2}, noTrace); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never readmitted after reconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if got := metricValue(t, reg, "haccs_net_reconnects_total"); got != 1 {
		t.Errorf("haccs_net_reconnects_total = %v, want 1", got)
	}
	if got := metricValue(t, reg, "haccs_net_sessions_active"); got != 1 {
		t.Errorf("haccs_net_sessions_active = %v, want 1", got)
	}
}

func TestAbortLooksLikeACrashToClients(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	const n = 2
	errs := make(chan error, n)
	for id := 0; id < n; id++ {
		go func(id int) {
			c := &Client{
				Reg:     RegisterFromSummary(id, []float64{1}, nil, 0.5, 10),
				Trainer: echoTrainer(id, 0),
			}
			_, err := c.Run(srv.Addr())
			errs <- err
		}(id)
	}
	if _, err := srv.AcceptClients(n); err != nil {
		t.Fatalf("accept: %v", err)
	}
	if err := srv.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	// Unlike Shutdown, Abort sends no farewell: every client must see
	// a receive error, exactly as if the coordinator process died.
	for i := 0; i < n; i++ {
		if err := <-errs; err == nil {
			t.Error("client exited cleanly across an Abort; want a receive error")
		}
	}
	// Abort is idempotent and Close after Abort is a no-op.
	if err := srv.Abort(); err != nil {
		t.Errorf("second abort: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("close after abort: %v", err)
	}
}
