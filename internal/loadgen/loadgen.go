package loadgen

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"haccs/internal/flnet"
	"haccs/internal/stats"
)

// FleetConfig parameterizes a synthetic client fleet.
type FleetConfig struct {
	// N is the fleet size (client IDs 0..N-1, the dense roster the
	// coordinator requires).
	N int
	// Latency shapes per-client expected latency and per-request
	// training sleeps.
	Latency LatencyModel
	// SleepScale converts virtual latency seconds into wall sleep
	// seconds (e.g. 0.001 makes a 2-virtual-second client sleep 2ms
	// per request). Zero disables sleeping entirely.
	SleepScale float64
	// MaxSleep clamps any single training sleep (0 = no clamp).
	MaxSleep time.Duration
	// Flakiness is the per-request probability that a client hangs up
	// mid-round instead of replying — the server sees a receive error,
	// drops the session, and the client redials.
	Flakiness float64
	// Seed roots every per-client RNG stream.
	Seed uint64
	// Classes is the synthetic label-histogram width carried in each
	// registration (default 10).
	Classes int
	// Route, when set, overrides the fleet-wide target per client —
	// the sharded legs point each client at its owning shard
	// coordinator. Routed clients ignore SetTarget (shard servers
	// survive a root crash, so their addresses never move).
	Route func(id int) string
}

func (c *FleetConfig) withDefaults() FleetConfig {
	out := *c
	if out.Latency == nil {
		out.Latency = UniformLatency{MinSec: 1, MaxSec: 5, Seed: out.Seed}
	}
	if out.Classes <= 0 {
		out.Classes = 10
	}
	return out
}

// Fleet is a running set of synthetic clients. Each client is a
// goroutine in a dial-serve-redial loop: it connects to the current
// target, registers, serves training requests, and on any connection
// loss (coordinator crash, injected storm, its own flakiness) backs
// off briefly and redials — which the coordinator's reconnect loop
// admits as a session replacement.
type Fleet struct {
	cfg FleetConfig

	target   atomic.Value // string: coordinator address
	stopping atomic.Bool
	wg       sync.WaitGroup

	mu    sync.Mutex
	conns map[int]net.Conn
}

// redialBackoff spaces redial attempts so a dead coordinator is not
// hammered; jittered per client to spread reconnect storms over a few
// accept cycles.
const redialBackoff = 20 * time.Millisecond

// StartFleet launches cfg.N clients against the coordinator at addr.
// It returns immediately; AcceptClients on the server side observes
// the registrations.
func StartFleet(cfg FleetConfig, addr string) (*Fleet, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("loadgen: fleet size must be positive, got %d", cfg.N)
	}
	f := &Fleet{cfg: cfg.withDefaults(), conns: make(map[int]net.Conn, cfg.N)}
	f.target.Store(addr)
	f.wg.Add(f.cfg.N)
	for id := 0; id < f.cfg.N; id++ {
		go f.clientLoop(id)
	}
	return f, nil
}

// SetTarget points subsequent (re)dials at a new coordinator address —
// the crash+resume leg moves the fleet to the restarted server's port.
func (f *Fleet) SetTarget(addr string) { f.target.Store(addr) }

// Storm abruptly closes the live connections of exactly the given
// clients — a staged reconnect storm. The victims' serve loops fail,
// back off, and redial. Returns the number of connections actually
// closed (clients mid-redial have none).
func (f *Fleet) Storm(ids []int) int {
	f.mu.Lock()
	victims := make([]net.Conn, 0, len(ids))
	for _, id := range ids {
		if c, ok := f.conns[id]; ok {
			victims = append(victims, c)
		}
	}
	f.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
	return len(victims)
}

// Stop tears the fleet down: no further redials, all live connections
// closed, and every client goroutine joined before return.
func (f *Fleet) Stop() {
	f.stopping.Store(true)
	f.mu.Lock()
	for _, c := range f.conns {
		c.Close()
	}
	f.mu.Unlock()
	f.wg.Wait()
}

// registration builds client id's synthetic Register: a peaked label
// histogram (class id%Classes dominant) and the latency model's
// expectation, which the coordinator's virtual clock and straggler
// deadline consume.
func (f *Fleet) registration(id int) flnet.Register {
	counts := make([]float64, f.cfg.Classes)
	for c := range counts {
		counts[c] = 1
	}
	counts[id%f.cfg.Classes] = 10
	return flnet.RegisterFromSummary(id, counts, nil, f.cfg.Latency.Expect(id), 100+id%50)
}

func (f *Fleet) clientLoop(id int) {
	defer f.wg.Done()
	rng := stats.NewRNG(stats.DeriveSeed(f.cfg.Seed, uint64(id)))
	for !f.stopping.Load() {
		addr := f.target.Load().(string)
		if f.cfg.Route != nil {
			addr = f.cfg.Route(id)
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			// Coordinator down (crash leg) or listen backlog overrun
			// under a storm; back off and retry.
			f.sleepInterruptibly(redialBackoff + time.Duration(rng.Intn(int(redialBackoff))))
			continue
		}
		f.mu.Lock()
		if f.stopping.Load() {
			f.mu.Unlock()
			conn.Close()
			return
		}
		f.conns[id] = conn
		f.mu.Unlock()

		c := &flnet.Client{
			Reg:     f.registration(id),
			Trainer: f.trainer(id, conn, rng),
		}
		_, _ = c.Serve(conn)

		f.mu.Lock()
		if f.conns[id] == conn {
			delete(f.conns, id)
		}
		f.mu.Unlock()
		f.sleepInterruptibly(time.Duration(rng.Intn(int(redialBackoff))))
	}
}

// sleepInterruptibly naps without delaying Stop by more than one poll.
func (f *Fleet) sleepInterruptibly(d time.Duration) {
	const poll = 5 * time.Millisecond
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if f.stopping.Load() {
			return
		}
		step := time.Until(deadline)
		if step > poll {
			step = poll
		}
		time.Sleep(step)
	}
}

// trainer builds the synthetic local-training function for one client:
// sleep the modeled latency (compressed by SleepScale), optionally
// hang up to inject flakiness, and echo the parameters nudged by a
// small client-specific shift so payload integrity is checkable end to
// end.
func (f *Fleet) trainer(id int, conn net.Conn, rng *stats.RNG) flnet.Trainer {
	// One reply buffer per client session: Serve has written a reply to
	// the wire before it asks for the next one, so the generator adds no
	// garbage of its own to what haccs-load measures.
	var out []float64
	return flnet.TrainerFunc(func(round int, params []float64) ([]float64, int, float64) {
		if f.cfg.SleepScale > 0 {
			time.Sleep(sleepFor(f.cfg.Latency.Delay(id, round, rng), f.cfg.SleepScale, f.cfg.MaxSleep))
		}
		if f.cfg.Flakiness > 0 && rng.Float64() < f.cfg.Flakiness {
			// Hang up instead of replying: the server's read fails and
			// drops the session; the serve loop returns and redials.
			conn.Close()
		}
		if len(out) != len(params) {
			out = make([]float64, len(params))
		}
		shift := 1.0 / float64(id+1)
		for i, v := range params {
			out[i] = v + shift
		}
		return out, 100 + id%50, 1.0 / float64(round+1)
	})
}
