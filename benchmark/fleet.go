package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"haccs/internal/flnet"
)

// wireCounts are exact byte and frame counts seen under the harness's
// own client connections, both directions.
type wireCounts struct {
	readBytes  atomic.Int64 // server → client
	writeBytes atomic.Int64 // client → server
	writes     atomic.Int64 // client → server frames: gob issues one Write per message
}

// countingConn counts what crosses one client connection.
type countingConn struct {
	net.Conn
	counts *wireCounts
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.counts.readBytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.counts.writeBytes.Add(int64(n))
	c.counts.writes.Add(1)
	return n, err
}

// echoTrainer returns its input shifted by a per-client constant, so
// the global model has a closed form. It trains instantly (no sleep)
// and reuses one output buffer: the load generator allocates nothing
// per call.
type echoTrainer struct {
	shift   float64
	samples int
	buf     []float64
	calls   *atomic.Int64
}

func (t *echoTrainer) Train(round int, params []float64) ([]float64, int, float64) {
	if len(t.buf) != len(params) {
		t.buf = make([]float64, len(params))
	}
	for i, v := range params {
		t.buf[i] = v + t.shift
	}
	t.calls.Add(1)
	return t.buf, t.samples, 1 / float64(round+1)
}

// echoShift is client id's constant update.
func echoShift(id int) float64 { return 1 / float64(id+1) }

// clientSpec is one harness-owned client: where it dials and what it
// registers.
type clientSpec struct {
	id          int
	addr        string
	latency     float64 // registered virtual round latency, seconds
	samples     int
	labelCounts []float64
}

// clientFleet is the harness's own set of flnet clients: each dials
// its coordinator through a counting connection and serves training
// requests with an echo trainer until the server shuts the session
// down.
type clientFleet struct {
	counts wireCounts
	calls  atomic.Int64 // training requests served = server → client frames

	wg  sync.WaitGroup
	mu  sync.Mutex
	err error
}

// startFleet dials every client. The connections sit in the listener's
// backlog until the server accepts them.
func startFleet(specs []clientSpec) (*clientFleet, error) {
	f := &clientFleet{}
	conns := make([]net.Conn, 0, len(specs))
	for _, s := range specs {
		conn, err := net.Dial("tcp", s.addr)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, fmt.Errorf("client %d dial %s: %w", s.id, s.addr, err)
		}
		conns = append(conns, conn)
	}
	for i, s := range specs {
		c := &flnet.Client{
			Reg: flnet.Register{ClientID: s.id, LabelCounts: s.labelCounts,
				LatencyEstimate: s.latency, NumSamples: s.samples},
			Trainer: &echoTrainer{shift: echoShift(s.id), samples: s.samples, calls: &f.calls},
		}
		f.wg.Add(1)
		go func(c *flnet.Client, conn net.Conn) {
			defer f.wg.Done()
			if _, err := c.Serve(&countingConn{Conn: conn, counts: &f.counts}); err != nil {
				f.mu.Lock()
				if f.err == nil {
					f.err = err
				}
				f.mu.Unlock()
			}
		}(c, conns[i])
	}
	return f, nil
}

// wait blocks until every client has returned (after the servers shut
// down) and reports the first session that ended with an error.
func (f *clientFleet) wait() error {
	f.wg.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}
