package session

import (
	"errors"
	"net"
	"runtime"
	"testing"
	"time"
)

// hello is the test hop's handshake record and only message.
type hello struct{ ID int }

func readHelloFrame(dec *Codec) (int, hello, error) {
	var h hello
	if err := dec.Decode(&h); err != nil {
		return 0, hello{}, err
	}
	return h.ID, h, nil
}

func listen(t *testing.T) *Server[hello] {
	t.Helper()
	s, err := Listen("test", "127.0.0.1:0", readHelloFrame)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Teardown(nil) })
	return s
}

// peer is the dialing side of one test connection.
type peer struct {
	net.Conn
	enc, dec *Codec
}

// dial connects and, for id >= 0, says hello; id < 0 stays silent.
func dial(t *testing.T, s *Server[hello], id int) *peer {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	codec := NewCodec(conn)
	p := &peer{Conn: conn, enc: codec, dec: codec}
	if id >= 0 {
		if err := p.enc.Encode(hello{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// echo answers one request with its ID plus one.
func (p *peer) echo() {
	var req hello
	if p.dec.Decode(&req) == nil {
		p.enc.Encode(hello{ID: req.ID + 1})
	}
}

// shortHandshake shortens the handshake deadline for one test.
func shortHandshake(t *testing.T) {
	t.Helper()
	old := handshakeTimeout
	handshakeTimeout = 30 * time.Millisecond
	t.Cleanup(func() { handshakeTimeout = old })
}

// expectClosed fails unless the server side has closed conn.
func expectClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	_, err := conn.Read(make([]byte, 1))
	var ne net.Error
	if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("connection still open (read: %v)", err)
	}
}

func TestHandshakeTimeoutOnInitialAccept(t *testing.T) {
	shortHandshake(t)
	s := listen(t)
	seatedPeer := dial(t, s, 4)
	c, err := s.Accept()
	if err != nil || !s.Seat(c, false) {
		t.Fatalf("seat: %v", err)
	}

	silent := dial(t, s, -1)
	start := time.Now()
	if c, err = s.Accept(); err == nil {
		t.Fatalf("silent dialer was accepted as peer %d", c.ID)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("err = %v, want the handshake read timeout", err)
	}
	if waited := time.Since(start); waited < handshakeTimeout || waited > time.Second {
		t.Errorf("accept waited %v on a silent dialer, timeout is %v", waited, handshakeTimeout)
	}
	expectClosed(t, silent)

	// The deadline covers the handshake only: the peer seated before
	// that wait has now idled past it, and its exchange still works.
	go seatedPeer.echo()
	var rep hello
	if err := s.Exchange(4, hello{ID: 10}, &rep, 0, func() error { return nil }); err != nil || rep.ID != 11 {
		t.Fatalf("exchange after idling past the handshake timeout: reply %+v, err %v", rep, err)
	}
}

func TestHandshakeTimeoutInReconnectLoop(t *testing.T) {
	shortHandshake(t)
	s := listen(t)
	admitted := make(chan int, 1)
	s.ServeReconnects(func(c *Conn[hello]) {
		s.Seat(c, true)
		admitted <- c.ID
	}, nil)
	s.ServeReconnects(func(*Conn[hello]) { t.Error("second loop started") }, nil) // idempotent

	// A silent dialer ahead in the accept queue is dropped quietly and
	// does not stall the peer behind it.
	silent := dial(t, s, -1)
	dial(t, s, 7)
	select {
	case id := <-admitted:
		if id != 7 {
			t.Fatalf("admitted peer %d, want 7", id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reconnect loop wedged behind a silent dialer")
	}
	expectClosed(t, silent)
	if s.Len() != 1 {
		t.Errorf("%d live sessions, want 1", s.Len())
	}
}

func TestSeatRefusesOrReplaces(t *testing.T) {
	s := listen(t)
	first := dial(t, s, 3)
	c1, err := s.Accept()
	if err != nil || !s.Seat(c1, false) {
		t.Fatalf("first seat: %v", err)
	}

	// Without replace a second session for the same peer is refused and
	// closed; the seated one is untouched.
	dup := dial(t, s, 3)
	c2, err := s.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if s.Seat(c2, false) {
		t.Fatal("duplicate peer seated without replace")
	}
	expectClosed(t, dup)

	// With replace the fresh session wins and the stale conn closes.
	dial(t, s, 3)
	c3, err := s.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Seat(c3, true) {
		t.Fatal("replacement refused")
	}
	expectClosed(t, first)
	if s.Len() != 1 || s.Peers()[0].ID != 3 {
		t.Errorf("sessions after replace: %v", s.Peers())
	}
}

func TestDropSessionIsPointerMatched(t *testing.T) {
	s := listen(t)
	dial(t, s, 0)
	stale, err := s.Accept()
	if err != nil || !s.Seat(stale, false) {
		t.Fatalf("seat: %v", err)
	}
	s.mu.Lock()
	fresh := &Conn[hello]{ID: stale.ID, Hello: stale.Hello, codec: stale.codec, conn: stale.conn}
	s.sessions[0] = fresh
	s.mu.Unlock()

	// Dropping the *stale* pointer must not evict the fresh session.
	s.drop(stale)
	s.mu.Lock()
	got := s.sessions[0]
	s.mu.Unlock()
	if got != fresh {
		t.Fatal("drop evicted a session it did not own")
	}
}

func TestExchangeDropsOnAnyError(t *testing.T) {
	s := listen(t)
	if err := s.Exchange(1, hello{}, &hello{}, 0, nil); err != ErrNoSession {
		t.Fatalf("exchange with an unseated peer: %v, want ErrNoSession", err)
	}
	p := dial(t, s, 1)
	c, err := s.Accept()
	if err != nil || !s.Seat(c, false) {
		t.Fatalf("seat: %v", err)
	}
	go p.echo()
	bad := errors.New("protocol violation")
	var rep hello
	if err := s.Exchange(1, hello{ID: 5}, &rep, 0, func() error { return bad }); err != bad {
		t.Fatalf("exchange returned %v, want the check's error", err)
	}
	if rep.ID != 6 {
		t.Errorf("check ran before the reply was decoded: %+v", rep)
	}
	expectClosed(t, p)
	if err := s.Send(1, hello{}); err != ErrNoSession {
		t.Errorf("send after the drop: %v, want ErrNoSession", err)
	}
}

// TestTeardownLeavesNoGoroutines: teardown says farewell, is
// idempotent, joins the reconnect loop, and returns the process to its
// baseline goroutine count (the manual goleak of
// flnet.TestShutdownLeavesNoGoroutines).
func TestTeardownLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for iter := 0; iter < 3; iter++ {
		s, err := Listen("test", "127.0.0.1:0", readHelloFrame)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.EnableTelemetry(nil, nil, "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		p := dial(t, s, iter)
		c, err := s.Accept()
		if err != nil || !s.Seat(c, false) {
			t.Fatalf("seat: %v", err)
		}
		s.ServeReconnects(func(c *Conn[hello]) { s.Seat(c, true) }, nil)
		if err := s.Teardown(hello{ID: -1}); err != nil {
			t.Fatal(err)
		}
		var bye hello
		if err := p.dec.Decode(&bye); err != nil || bye.ID != -1 {
			t.Errorf("farewell = %+v, %v", bye, err)
		}
		if err := s.Teardown(nil); err != nil {
			t.Errorf("second teardown: %v", err)
		}
		if s.Len() != 0 {
			t.Errorf("%d sessions survive teardown", s.Len())
		}
		// A torn-down server seats nobody and starts no loop.
		if s.Seat(c, true) {
			t.Error("seated a session after teardown")
		}
		s.ServeReconnects(func(*Conn[hello]) {}, nil)
		p.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Errorf("goroutines leaked: baseline %d, now %d\n%s", baseline, runtime.NumGoroutine(), buf[:n])
}
