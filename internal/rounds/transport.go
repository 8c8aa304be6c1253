// Package rounds is the transport-agnostic federated round runtime:
// one driver owns the full per-round state machine — strategy
// selection over availability, parameter dispatch, reply collection
// with a virtual-time deadline, straggler cutoff with partial FedAvg
// over the reporters, loss feedback to the strategy, and
// summary-refresh forwarding — while a Transport/Proxy pair abstracts
// how a training job actually reaches a client. The in-process
// evaluation engine (internal/fl) and the TCP coordinator
// (internal/flnet) are both thin adapters over this driver, so
// deadline and partial-aggregation semantics are identical in
// simulation and over the wire (the paper's Fig. 2 protocol, pinned in
// one place).
package rounds

import (
	"haccs/internal/fleet"
	"haccs/internal/telemetry"
)

// Result is what one client returns to the server after local
// training. internal/fl aliases its TrainResult to this type, so the
// in-process proxy returns it without conversion.
type Result struct {
	ClientID int
	// Params is the client's updated flat parameter vector.
	Params []float64
	// NumSamples weights this update in federated averaging.
	NumSamples int
	// Loss is the client's observed first-epoch training loss, the
	// utility signal loss-aware schedulers consume.
	Loss float64
	// Summary, when non-nil, is a refreshed P(y) label-count summary
	// piggybacked on the reply (the paper's §IV-C asynchronous summary
	// update); the driver forwards it through Config.OnSummary.
	Summary []float64
	// Stats, when non-nil, is the client's self-reported training
	// statistics block (flnet wire transports fill it from the
	// validated TrainReply; in-process transports leave it nil). The
	// driver forwards it to the fleet health registry.
	Stats *fleet.ClientStats
}

// Proxy is one client endpoint the driver can dispatch a local-training
// job to.
type Proxy interface {
	// Train runs one local-training job against the given global
	// parameters and returns the client's result. The driver calls it
	// from its worker goroutines: worker (in [0, Transport.Parallelism()))
	// identifies the calling worker so in-process transports can pin
	// per-worker scratch state, and slot is the job's selection-order
	// index so transports can reuse per-slot result buffers. Network
	// transports ignore both. sc is the driver's per-client train span
	// context (zero when span tracing is off); network transports
	// propagate it on the wire so the remote side can parent its local
	// spans under this dispatch, in-process transports may ignore it.
	// Implementations must not retain params.
	Train(round, worker, slot int, params []float64, sc telemetry.SpanContext) (Result, error)
	// Latency is the client's expected round latency in virtual
	// seconds — the driver's clock advance and deadline-cutoff input.
	Latency() float64
}

// Transport provides the driver's client endpoints.
type Transport interface {
	// Proxies returns one proxy per client, indexed by dense client ID.
	// The driver caches the slice and each proxy's Latency at
	// construction.
	Proxies() []Proxy
	// Parallelism bounds concurrent Train dispatches: the driver runs
	// min(Parallelism, selected) workers per round. In-process
	// transports return their worker-context count; network transports
	// return the roster size so every push goes out concurrently.
	Parallelism() int
}

// FedAvg computes the sample-weighted average of client parameter
// vectors (McMahan et al., Federated Averaging): the new global model
// is sum_i (n_i / n) * w_i over the participating clients. All vectors
// must have equal length; the result is written into a new slice.
func FedAvg(results []Result) []float64 {
	if len(results) == 0 {
		panic("rounds: FedAvg with no results")
	}
	out := make([]float64, len(results[0].Params))
	FedAvgInto(out, results)
	return out
}

// fedAvgBlock is how many coordinates of dst FedAvgInto finishes at a
// time: 2 048 floats, 16 KiB, so the block stays in the L1 data cache
// while every result's slice of it streams past, instead of one
// read-modify-write sweep of the whole of dst per result.
const fedAvgBlock = 2048

// FedAvgInto is FedAvg written into a caller-owned vector (the driver
// reuses its global vector across rounds). dst must have the parameter
// dimension and must not alias any result's Params; it is overwritten.
// When the driver cuts stragglers, results holds only the reporters, so
// the weights renormalize over them.
func FedAvgInto(dst []float64, results []Result) {
	if len(results) == 0 {
		panic("rounds: FedAvg with no results")
	}
	dim := len(results[0].Params)
	if len(dst) != dim {
		panic("rounds: FedAvgInto destination dimension mismatch")
	}
	total := 0
	for _, r := range results {
		if len(r.Params) != dim {
			panic("rounds: FedAvg parameter dimension mismatch")
		}
		if r.NumSamples <= 0 {
			panic("rounds: FedAvg result with non-positive sample count")
		}
		total += r.NumSamples
	}
	for lo := 0; lo < dim; lo += fedAvgBlock {
		blk := dst[lo:min(lo+fedAvgBlock, dim)]
		clear(blk)
		for _, r := range results {
			w := float64(r.NumSamples) / float64(total)
			p := r.Params[lo : lo+len(blk)]
			for i, v := range p {
				blk[i] += w * v
			}
		}
	}
}
