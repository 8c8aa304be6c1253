package fl

import (
	"haccs/internal/rounds"
	"haccs/internal/telemetry"
)

// localTransport adapts the engine's in-process training substrate —
// the persistent per-worker TrainContexts and per-slot parameter
// buffers from the hot-path work — to the round driver's Transport
// interface. Parallelism is the worker-context count, so the driver's
// worker index w always addresses the context pinned to goroutine w,
// exactly as the pre-driver engine fan-out did.
type localTransport struct {
	e *Engine
}

func (t localTransport) Proxies() []rounds.Proxy {
	ps := make([]rounds.Proxy, len(t.e.clients))
	for i := range ps {
		ps[i] = &localProxy{e: t.e, id: i, latency: t.e.ClientLatency(i)}
	}
	return ps
}

func (t localTransport) Parallelism() int { return len(t.e.workers) }

// localProxy runs one simulated client's step inline on the calling
// worker's TrainContext, writing the updated parameters into the
// selection slot's reusable buffer.
type localProxy struct {
	e       *Engine
	id      int
	latency float64
}

// Train runs the job inline; the span context needs no propagation —
// the driver's train span already covers this call exactly.
func (p *localProxy) Train(round, worker, slot int, params []float64, _ telemetry.SpanContext) (rounds.Result, error) {
	e := p.e
	return e.clients[p.id].TrainRound(&e.cfg, e.workers[worker], round, params, e.paramsBuf[slot]), nil
}

func (p *localProxy) Latency() float64 { return p.latency }
