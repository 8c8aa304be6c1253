package flnet

import (
	"math"
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

// TestReconnectRefusalsCounted: after start-up, a liar redials with a
// NaN latency and then with an undecodable first frame. The reconnect
// loop closes each connection and counts it in
// haccs_net_registrations_refused_total under the kind AcceptClients
// would use (bad_register, handshake), and an honest client that
// redials behind them is still admitted.
func TestReconnectRefusalsCounted(t *testing.T) {
	srv, reg := countingServer(t)
	errc := acceptAsync(srv, 2)
	dialRaw(t, srv.Addr()).register(t, 0)
	expectHonest(t, srv, errc, []int{1}, 0, 1)
	srv.ServeReconnects()

	nan := dialRaw(t, srv.Addr())
	r := RegisterFromSummary(1, []float64{1}, nil, math.NaN(), 10)
	if err := nan.enc.Encode(Envelope{Register: &r}); err != nil {
		t.Fatal(err)
	}
	nan.expectClosed(t, "reconnect with a NaN latency")

	garbage := dialRaw(t, srv.Addr())
	if _, err := garbage.conn.Write([]byte{0x07, 0xff, 0x81, 0x03, 0x00, 0x2a, 0x2a, 0x2a}); err != nil {
		t.Fatal(err)
	}
	garbage.expectClosed(t, "reconnect with a malformed frame")

	// The loop is sequential: once the honest redial is seated, both
	// refusals ahead of it have been counted.
	dialRaw(t, srv.Addr()).register(t, 0)
	deadline := time.Now().Add(peerWait)
	for srv.Reconnects() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("honest client not readmitted behind the refused redials")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := refusedCount(reg, ErrBadRegister); got != 1 {
		t.Errorf("refused{kind=bad_register} = %v, want 1", got)
	}
	if got := refusedCount(reg, "handshake"); got != 1 {
		t.Errorf("refused{kind=handshake} = %v, want 1", got)
	}
	if n := srv.Sessions(); n != 2 {
		t.Errorf("%d live sessions, want the two honest clients", n)
	}
}
