// Package fl implements the federated-learning substrate: simulated
// clients with local datasets and system profiles, federated averaging,
// and a deterministic virtual-clock training engine that drives any
// client-selection Strategy through the paper's round structure.
//
// Rounds advance a virtual clock instead of sleeping: each selected
// client's round latency is computed from its simnet.Profile (compute
// delay, bandwidth, network latency) and the round takes as long as its
// slowest participant, exactly as in a synchronous FedAvg deployment.
package fl

import (
	"fmt"

	"haccs/internal/dataset"
	"haccs/internal/nn"
	"haccs/internal/rounds"
	"haccs/internal/simnet"
	"haccs/internal/stats"
	"haccs/internal/tensor"
)

// Client is one simulated device: local train/test data plus a sampled
// system profile. Clients train clones of the global model; they never
// share raw data with the server, only parameter vectors (and, for
// HACCS, distribution summaries produced elsewhere).
type Client struct {
	ID      int
	Data    dataset.ClientData
	Profile simnet.Profile
}

// NumTrainSamples returns the client's local training set size.
func (c *Client) NumTrainSamples() int { return c.Data.Train.Len() }

// TrainResult is what a client returns to the server after local
// training. It is an alias of rounds.Result — the round driver's reply
// type — so the in-process transport hands client results straight to
// the driver without conversion. Loss is the mean minibatch loss
// observed during the first local epoch (before updates from later
// epochs), the utility signal loss-aware schedulers consume.
type TrainResult = rounds.Result

// LocalTrainConfig controls one client's local optimization.
type LocalTrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
	// ProxMu enables a FedProx-style proximal term (mu/2)·||w − w_g||²
	// in the local objective (0 disables). Bounding local drift is the
	// FedProx answer to the same heterogeneity HACCS addresses by
	// selection; the two compose.
	ProxMu float64
}

// TrainContext bundles the per-worker state one local-training job
// needs: a scratch model (parameters overwritten per job), a persistent
// optimizer (velocity reset per job so each job still starts cold), and
// a scratch arena backing minibatch assembly. One context serves one
// goroutine at a time; a long-lived worker reuses its context across
// rounds so steady-state training allocates nothing.
type TrainContext struct {
	Model *nn.Network
	Opt   *nn.SGD
	// Scratch backs minibatch buffers (nil: allocated per batch).
	Scratch *tensor.Scratch
}

// NewTrainContext builds a context around a fresh clone of the given
// template network, with its own scratch arena.
func NewTrainContext(template *nn.Network) *TrainContext {
	return &TrainContext{Model: template.Clone(), Scratch: tensor.NewScratch()}
}

// TrainRound is the client step a selected client runs in round under
// cfg, on an engine worker or behind a network session (Remote). Its
// batches come from the (client, round) stream of cfg.Seed, so the result
// depends on nothing else; tc and dst (nil, or NumParams long) are the
// caller's.
func (c *Client) TrainRound(cfg *Config, tc *TrainContext, round int, global, dst []float64) TrainResult {
	rng := stats.NewRNG(stats.DeriveSeed(cfg.Seed, 1000+uint64(c.ID)*1_000_003+uint64(round)))
	return c.LocalTrainCtx(tc, global, dst, cfg.Local, rng)
}

// Info is what a strategy knows of the client in a run under cfg with
// modelBytes-byte transfers: its sample count and its round latency, the
// profile's cost of its local epochs, both transfers and the RTT.
func (c *Client) Info(cfg *Config, modelBytes int) ClientInfo {
	compute := cfg.PerSampleComputeSec * float64(c.NumTrainSamples()) * float64(cfg.Local.Epochs)
	return ClientInfo{ID: c.ID, Latency: c.Profile.RoundLatency(compute, modelBytes), NumSamples: c.NumTrainSamples()}
}

// Remote is the client as it joins a networked run under cfg: its Info,
// its P(y) label counts (core's PY summary), and TrainRound with
// flnet.TrainerFunc's signature, on a context and result buffer of its
// own. Calls to train must not overlap; each reuses the last one's vector.
func (c *Client) Remote(cfg Config) (info ClientInfo, labelCounts []float64, train func(round int, params []float64) ([]float64, int, float64)) {
	tc := NewTrainContext(cfg.Arch.Build(stats.NewRNG(stats.DeriveSeed(cfg.Seed, 0))))
	dst := make([]float64, tc.Model.NumParams())
	train = func(round int, params []float64) ([]float64, int, float64) {
		res := c.TrainRound(&cfg, tc, round, params, dst)
		return res.Params, res.NumSamples, res.Loss
	}
	return c.Info(&cfg, tc.Model.WireBytes()), c.Data.Train.LabelHistogram().Counts, train
}

// LocalTrainCtx runs local SGD from globalParams on tc's model, reusing
// its optimizer, minibatch buffers and (when paramsDst, NumParams long,
// is given) the result vector, so steady-state rounds allocate nothing.
// The RNG drives batch shuffling only.
func (c *Client) LocalTrainCtx(tc *TrainContext, globalParams []float64, paramsDst []float64, cfg LocalTrainConfig, rng *stats.RNG) TrainResult {
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 {
		panic(fmt.Sprintf("fl: bad local train config %+v", cfg))
	}
	model := tc.Model
	model.SetParamsVector(globalParams)
	if tc.Opt == nil || tc.Opt.LR != cfg.LR || tc.Opt.Momentum != cfg.Momentum {
		tc.Opt = nn.NewSGD(cfg.LR, cfg.Momentum, 0)
	} else {
		// A fresh job starts with zero velocity, exactly like the fresh
		// optimizer the one-shot path builds.
		tc.Opt.Reset()
	}
	opt := tc.Opt
	firstEpochLoss := 0.0
	firstEpochBatches := 0
	for e := 0; e < cfg.Epochs; e++ {
		c.Data.Train.BatchesScratch(cfg.BatchSize, rng, tc.Scratch, func(x *tensor.Dense, y []int) {
			var loss float64
			if cfg.ProxMu > 0 {
				model.ZeroGrads()
				logits := model.Forward(x)
				var grad *tensor.Dense
				loss, grad = model.LossGrad(logits, y)
				model.Backward(grad)
				model.AddProximalGrad(globalParams, cfg.ProxMu)
				opt.Step(model)
			} else {
				loss = nn.TrainBatch(model, opt, x, y)
			}
			if e == 0 {
				firstEpochLoss += loss
				firstEpochBatches++
			}
		})
	}
	loss := 0.0
	if firstEpochBatches > 0 {
		loss = firstEpochLoss / float64(firstEpochBatches)
	}
	params := paramsDst
	if params == nil {
		params = model.ParamsVector()
	} else {
		model.ParamsVectorInto(params)
	}
	return TrainResult{
		ClientID:   c.ID,
		Params:     params,
		NumSamples: c.NumTrainSamples(),
		Loss:       loss,
	}
}
