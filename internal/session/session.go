// Package session is the coordinator-side session layer under both
// network hops: flnet.Server (coordinator ↔ clients) and
// shard.RootServer (root ↔ shard agents) are each one Server keyed by
// peer ID. A hop supplies the function that reads its handshake record
// off a fresh connection and wraps its admission policy around Seat;
// the listener, the session table, the reconnect loop, the
// request/reply exchange, the teardown order and the wire format (the
// Codec: gob for the control envelope, model vectors as raw float64
// frames read into per-session buffers) are here, once.
//
// The drop rule: any transport or protocol error on an exchange closes
// and forgets exactly the session it happened on. The match is by
// pointer, so a failure racing a reconnect cannot evict the peer's
// fresh replacement session. A dropped peer fails fast with
// ErrNoSession until it reconnects.
package session

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"haccs/internal/telemetry"
)

// handshakeTimeout bounds how long a freshly accepted connection may
// take to deliver its first frame, on the initial accept and in the
// reconnect loop alike, so one silent dialer cannot wedge start-up or
// stall the admission of everyone behind it. A variable only so the
// in-package test can shorten it.
var handshakeTimeout = 5 * time.Second

// ErrNoSession is returned by Send and Exchange for a peer with no live
// session (never seated, or dropped after an earlier error); hops
// translate it into their own typed error.
var ErrNoSession = errors.New("session: no live session")

// ErrListener marks an Accept that failed on the listener itself
// (closed, or out of descriptors) rather than on one dialer's
// handshake, so a hop can keep accepting past a refused dialer.
var ErrListener = errors.New("listener failed")

// Conn is one peer's session: the handshake record it announced itself
// with and the codec bound to its connection.
type Conn[H any] struct {
	ID    int
	Hello H
	// Reconnect is set by Seat when the peer had held a session on this
	// server before — connection churn, which each hop counts under its
	// own metric name.
	Reconnect bool

	codec *Codec
	conn  net.Conn
}

// Reject closes a connection the hop's admission policy refused,
// sending farewell first when non-nil (best effort).
func (c *Conn[H]) Reject(farewell any) {
	if farewell != nil {
		_ = c.codec.Encode(farewell)
	}
	c.conn.Close()
}

// Server is a listening endpoint plus its table of live sessions,
// parameterised by the hop's handshake record H.
type Server[H any] struct {
	name  string // the hop's error prefix ("flnet", "shard")
	ln    net.Listener
	hello func(*Codec) (id int, h H, err error)

	mu         sync.Mutex
	sessions   map[int]*Conn[H]
	seen       map[int]bool // every peer ID ever seated
	reconnects int
	closed     bool
	loopDone   chan struct{} // non-nil once the reconnect loop started
	reg        *telemetry.Registry
	http       *telemetry.HTTPServer
}

// Listen binds addr (use "127.0.0.1:0" for an ephemeral port). hello
// decodes and validates a peer's first frame, returning the peer ID
// and its handshake record; its error is what a failed Accept reports.
func Listen[H any](name, addr string, hello func(*Codec) (int, H, error)) (*Server[H], error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%s: listen: %w", name, err)
	}
	return &Server[H]{name: name, ln: ln, hello: hello, sessions: map[int]*Conn[H]{}, seen: map[int]bool{}}, nil
}

// Addr returns the listen address.
func (s *Server[H]) Addr() string { return s.ln.Addr().String() }

// EnableTelemetry attaches a metrics registry and, when httpAddr is
// non-empty, mounts /metrics and /debug/trace (the JSONL tail of ring,
// plus any extra endpoints in opts) on it, returning the bound address
// ("" when no endpoint was requested). Teardown stops the endpoint.
func (s *Server[H]) EnableTelemetry(reg *telemetry.Registry, ring *telemetry.RingSink, httpAddr string, opts ...telemetry.ServeOption) (string, error) {
	s.mu.Lock()
	s.reg = reg
	s.mu.Unlock()
	if httpAddr == "" {
		return "", nil
	}
	srv, err := telemetry.Serve(httpAddr, reg, ring, opts...)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.http = srv
	s.mu.Unlock()
	return srv.Addr(), nil
}

// Registry returns the registry EnableTelemetry attached (nil = none),
// for the hop's own admission counters and gauges.
func (s *Server[H]) Registry() *telemetry.Registry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reg
}

// Accept blocks for the next connection and runs its handshake. The
// returned Conn is not seated yet: the hop applies its admission policy
// and calls Seat or Reject. A failed handshake closes the connection
// and returns hello's error; a failed listener returns an error that
// wraps ErrListener.
func (s *Server[H]) Accept() (*Conn[H], error) {
	conn, err := s.ln.Accept()
	if err != nil {
		return nil, fmt.Errorf("%s: accept: %w: %w", s.name, ErrListener, err)
	}
	return s.handshake(conn)
}

// handshake reads the peer's first frame under the handshake deadline.
func (s *Server[H]) handshake(conn net.Conn) (*Conn[H], error) {
	c := &Conn[H]{codec: NewCodec(conn), conn: conn}
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	var err error
	if c.ID, c.Hello, err = s.hello(c.codec); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetReadDeadline(time.Time{})
	return c, nil
}

// ServeReconnects starts the background loop that hands every later
// connection, after its handshake, to admit — the hop's reconnect
// policy. Silent, slow or malformed dialers are closed without
// disturbing the loop, and their handshake error goes to refuse (nil
// drops it), so that the hop can count them. Starting it twice is a
// no-op; the loop exits when the listener closes, and Teardown waits
// for it.
func (s *Server[H]) ServeReconnects(admit func(*Conn[H]), refuse func(error)) {
	s.mu.Lock()
	if s.closed || s.loopDone != nil {
		s.mu.Unlock()
		return
	}
	done := make(chan struct{})
	s.loopDone = done
	s.mu.Unlock()
	go func() {
		defer close(done)
		for {
			conn, err := s.ln.Accept()
			if err != nil {
				return // listener closed
			}
			c, err := s.handshake(conn)
			switch {
			case err == nil:
				admit(c)
			case refuse != nil:
				refuse(err)
			}
		}
	}()
}

// Seat installs c as its peer's live session and reports whether it
// did. With replace false a peer that already holds a session is
// refused; with replace true the stale session's connection is closed
// — after a peer-side drop the server still holds the dead session,
// and a strict duplicate check would lock the peer out forever. A
// server already torn down refuses everyone. A refused c is closed.
func (s *Server[H]) Seat(c *Conn[H], replace bool) bool {
	s.mu.Lock()
	old := s.sessions[c.ID]
	if s.closed || (old != nil && !replace) {
		s.mu.Unlock()
		c.conn.Close()
		return false
	}
	s.sessions[c.ID] = c
	if c.Reconnect = s.seen[c.ID]; c.Reconnect {
		s.reconnects++
	}
	s.seen[c.ID] = true
	s.mu.Unlock()
	if old != nil {
		old.conn.Close()
	}
	return true
}

// Len returns the number of live sessions.
func (s *Server[H]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Reconnects returns how many sessions were seated for a peer seen
// before, cumulatively — available without a registry.
func (s *Server[H]) Reconnects() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reconnects
}

// Peers returns the handshake records of the live sessions, in no
// particular order.
func (s *Server[H]) Peers() []H {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]H, 0, len(s.sessions))
	for _, c := range s.sessions {
		out = append(out, c.Hello)
	}
	return out
}

// Send pushes one message to peer id outside a request/reply exchange
// (the shard hop's deferred Ack). An encode error drops the session.
func (s *Server[H]) Send(id int, msg any) error {
	_, err := s.send(id, msg)
	return err
}

func (s *Server[H]) send(id int, msg any) (*Conn[H], error) {
	s.mu.Lock()
	c := s.sessions[id]
	s.mu.Unlock()
	if c == nil {
		return nil, ErrNoSession
	}
	if err := c.codec.Encode(msg); err != nil {
		s.drop(c)
		return nil, fmt.Errorf("%s: push to peer %d: %w", s.name, id, err)
	}
	return c, nil
}

// Exchange runs one request/reply round trip with peer id on the
// caller's goroutine: encode req, decode into reply (a pointer), then
// run the hop's check over what arrived. dim is the model dimension the
// hop expects back: a reply that announces a vector of any other
// non-zero length is refused (ErrBadVector) before a byte of it is read.
// Any failure — connection error, EOF, a refused vector or a non-nil
// check — drops the session and is returned, so a dead or misbehaving
// peer costs its caller one error and can never wedge a later round.
//
// A vector in the reply aliases the session's receive buffer: it is
// valid until the next Exchange with the same peer. A reconnect seats a
// new Conn and with it a new buffer.
func (s *Server[H]) Exchange(id int, req, reply any, dim int, check func() error) error {
	c, err := s.send(id, req)
	if err != nil {
		return err
	}
	if err = c.codec.DecodeDim(reply, dim); err != nil {
		err = fmt.Errorf("%s: receive from peer %d: %w", s.name, id, err)
	} else {
		err = check()
	}
	if err != nil {
		s.drop(c)
	}
	return err
}

// drop closes c and forgets it — only if it is still its peer's current
// session (the package's drop rule).
func (s *Server[H]) drop(c *Conn[H]) {
	s.mu.Lock()
	if s.sessions[c.ID] == c {
		delete(s.sessions, c.ID)
	}
	s.mu.Unlock()
	c.conn.Close()
}

// Teardown stops the server: every live session is sent farewell (nil
// sends nothing, so peers observe a receive error — what a crash looks
// like from below) and closed, then the listener closes, the reconnect
// loop is joined and the telemetry endpoint drains. Safe to call more
// than once; no goroutine of the server survives the call.
func (s *Server[H]) Teardown(farewell any) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for _, c := range s.sessions {
		c.Reject(farewell)
	}
	s.sessions = map[int]*Conn[H]{}
	httpSrv := s.http
	s.http = nil
	loopDone := s.loopDone
	s.mu.Unlock()
	err := s.ln.Close()
	if loopDone != nil {
		<-loopDone
	}
	if httpSrv != nil {
		if herr := httpSrv.Close(); err == nil {
			err = herr
		}
	}
	return err
}
