package fl

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"haccs/internal/checkpoint"
	"haccs/internal/fleet"
	"haccs/internal/nn"
	"haccs/internal/rounds"
	"haccs/internal/simnet"
	"haccs/internal/stats"
	"haccs/internal/telemetry"
)

// Config parameterizes one federated training run.
type Config struct {
	// Arch is the model family every client trains.
	Arch nn.Arch
	// Seed is the root seed for all engine-owned randomness (model init,
	// batch shuffling, strategy stream).
	Seed uint64
	// Local controls client-side optimization.
	Local LocalTrainConfig
	// ClientsPerRound is the selection budget k.
	ClientsPerRound int
	// MaxRounds bounds the run.
	MaxRounds int
	// TargetAccuracy stops the run early once the evaluated global
	// accuracy reaches it (0 disables early stop).
	TargetAccuracy float64
	// EvalEvery evaluates the global model every that many rounds
	// (default 1). The final round is always evaluated.
	EvalEvery int
	// PerSampleComputeSec is the baseline compute cost of one training
	// sample for one local epoch on a Fast device; per-client compute
	// time scales with data volume and the profile multiplier.
	PerSampleComputeSec float64
	// RoundDeadline is the virtual-time round deadline in seconds:
	// selected clients slower than it are cut as stragglers and the
	// round aggregates only the reporters (see rounds.Config.Deadline).
	// 0 keeps rounds fully synchronous. Sync-only: async mode bounds
	// slow updates with Async.MaxStaleness instead.
	RoundDeadline float64
	// Mode selects the round runtime: synchronous barrier rounds (the
	// zero value) or FedBuff-style buffered asynchronous aggregation
	// (see rounds.Mode).
	Mode rounds.Mode
	// Async tunes the buffered asynchronous driver when Mode is
	// rounds.ModeAsync; ignored in sync mode.
	Async rounds.AsyncConfig
	// Dropout injects per-epoch unavailability (nil = no dropout).
	Dropout simnet.DropoutModel
	// Parallelism bounds concurrent client training (0 = GOMAXPROCS).
	Parallelism int
	// RecordSelections keeps the per-round selected-client lists in the
	// Result (needed by the Table III / Fig 11 analyses).
	RecordSelections bool
	// Tracer receives the structured round-trace event stream; nil
	// disables tracing at the cost of one branch per emission site.
	// Implementations must tolerate concurrent Emit calls (client
	// training events come from worker goroutines).
	Tracer telemetry.Tracer
	// Spans, when non-nil, times the round lifecycle as a span tree
	// (see rounds.Config.Spans). A nil tracer costs nothing.
	Spans *telemetry.SpanTracer
	// Metrics, when non-nil, receives engine-level counters, gauges and
	// histograms (see DESIGN.md "Observability" for the name contract).
	Metrics *telemetry.Registry
	// Fleet, when non-nil, is the per-client health registry fed one
	// observation per round by the driver (see internal/fleet). On the
	// in-process transport its latency statistics are simulated virtual
	// seconds, keeping registry state deterministic; it joins the
	// checkpoint component set so resumed runs keep their fleet history
	// bit-identically. Nil disables fleet recording at zero cost.
	Fleet *fleet.Registry
	// Checkpoint, when non-nil, durably persists the full run state
	// (model, driver clock, strategy, run progress, dropout schedule)
	// into the store every CheckpointEvery rounds; a run restored from
	// such a snapshot (see Engine.Restore) reproduces the uninterrupted
	// trajectory bit for bit. Nil disables checkpointing at zero cost
	// to the round hot path.
	Checkpoint *checkpoint.Store
	// CheckpointEvery is the snapshot cadence in rounds when Checkpoint
	// is set (<= 0 means every round).
	CheckpointEvery int
}

func (c *Config) validate() {
	if c.ClientsPerRound <= 0 {
		panic("fl: ClientsPerRound must be positive")
	}
	if c.MaxRounds <= 0 {
		panic("fl: MaxRounds must be positive")
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = 1
	}
	if c.PerSampleComputeSec < 0 {
		panic("fl: negative PerSampleComputeSec")
	}
	if c.RoundDeadline < 0 {
		panic("fl: negative RoundDeadline")
	}
	if c.Dropout == nil {
		c.Dropout = simnet.NoDropout{}
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
}

// Point is one evaluation of the global model.
type Point struct {
	Round int     // rounds completed when evaluated
	Time  float64 // virtual seconds elapsed
	Acc   float64 // mean per-client test accuracy
	Loss  float64 // mean per-client test loss
}

// Result summarizes a training run.
type Result struct {
	Strategy string
	History  []Point
	// PerClientAcc is each client's test accuracy under the final
	// global model.
	PerClientAcc []float64
	// Selected holds the chosen client IDs per round when
	// Config.RecordSelections is set.
	Selected [][]int
	// Rounds is the number of rounds executed.
	Rounds int
	// Clock is the final virtual time in seconds.
	Clock float64
	// FinalParams is the final global parameter vector.
	FinalParams []float64
}

// FinalAccuracy returns the last evaluated global accuracy (0 if the
// run produced no evaluations).
func (r *Result) FinalAccuracy() float64 {
	if len(r.History) == 0 {
		return 0
	}
	return r.History[len(r.History)-1].Acc
}

// Engine drives one federated training run. Since the round-runtime
// extraction it is a thin adapter: the per-round state machine
// (selection, dispatch, deadline cutoff, partial FedAvg, telemetry)
// lives in internal/rounds; the engine owns what is specific to the
// in-process simulation — the client roster, the worker TrainContexts,
// the evaluation loop, and the run-level History/early-stop logic.
type Engine struct {
	cfg      Config
	clients  []*Client
	strategy Strategy
	driver   rounds.Runner

	modelBytes int

	// Per-worker training contexts for parallel local training and
	// evaluation; allocated once and reused every round so the
	// steady-state round loop allocates nothing. The driver pins its
	// worker goroutine w to workers[w] via the Proxy worker index.
	workers []*TrainContext
	// paramsBuf holds one parameter vector per selection slot, reused
	// across rounds (indexed by the Proxy slot argument).
	paramsBuf [][]float64

	evalLoss []float64

	// Run-level progress lives on the engine (not a Run-local Result)
	// so checkpoints can capture it and Restore can replay it: a
	// resumed run's Result carries the full history, not a suffix.
	history      []Point
	perClientAcc []float64
	selected     [][]int
	roundsDone   int
	// run is the shared run assembly: the checkpoint component table,
	// the saver (off without a store, at zero cost to the round hot
	// path) and where the next Run call begins after Restore.
	run *rounds.Run

	// met caches the engine's evaluation gauges (nil when metrics are
	// off); the round-level collectors are owned by the driver.
	met *engineMetrics
}

// engineMetrics holds the evaluation collectors the engine records
// into; looked up once at construction.
type engineMetrics struct {
	evalAcc  *telemetry.Gauge
	evalLoss *telemetry.Gauge
}

// trainWallBuckets moved to the rounds driver with the collector that
// uses it; aliased here for the test that referenced the fl-level
// layout.
var trainWallBuckets = rounds.TrainWallBuckets

func newEngineMetrics(reg *telemetry.Registry) *engineMetrics {
	if reg == nil {
		return nil
	}
	return &engineMetrics{
		evalAcc:  reg.Gauge("haccs_eval_accuracy", "Latest mean per-client test accuracy of the global model."),
		evalLoss: reg.Gauge("haccs_eval_loss", "Latest mean per-client test loss of the global model."),
	}
}

// NewEngine validates the configuration and initializes the global model
// deterministically from the seed.
func NewEngine(cfg Config, clients []*Client, strategy Strategy) *Engine {
	cfg.validate()
	if len(clients) == 0 {
		panic("fl: no clients")
	}
	for i, c := range clients {
		if c.ID != i {
			panic(fmt.Sprintf("fl: client %d has ID %d; IDs must be dense indices", i, c.ID))
		}
		if c.NumTrainSamples() == 0 {
			panic(fmt.Sprintf("fl: client %d has no training data", i))
		}
	}
	template := cfg.Arch.Build(stats.NewRNG(stats.DeriveSeed(cfg.Seed, 0)))
	initial := template.ParamsVector()
	e := &Engine{
		cfg:        cfg,
		clients:    clients,
		strategy:   strategy,
		modelBytes: template.WireBytes(),
		met:        newEngineMetrics(cfg.Metrics),
	}
	e.workers = make([]*TrainContext, cfg.Parallelism)
	for i := range e.workers {
		e.workers[i] = NewTrainContext(template)
	}
	e.paramsBuf = make([][]float64, cfg.ClientsPerRound)
	for i := range e.paramsBuf {
		e.paramsBuf[i] = make([]float64, len(initial))
	}
	e.evalLoss = make([]float64, len(clients))
	infos := make([]ClientInfo, len(clients))
	for i, c := range clients {
		infos[i] = c.Info(&cfg, e.modelBytes)
	}
	strategy.Init(infos, stats.NewRNG(stats.DeriveSeed(cfg.Seed, 1)))
	rcfg := rounds.Config{
		ClientsPerRound: cfg.ClientsPerRound,
		Deadline:        cfg.RoundDeadline,
		Dropout:         cfg.Dropout,
		Tracer:          cfg.Tracer,
		Spans:           cfg.Spans,
		Metrics:         cfg.Metrics,
		Fleet:           cfg.Fleet,
	}
	// The engine's configuration is written by the experiment code, so
	// an invalid one is a programming error: panic with the typed error.
	var err error
	if e.driver, err = rounds.NewRunner(cfg.Mode, rcfg, cfg.Async, localTransport{e}, strategy, initial); err != nil {
		panic(err)
	}
	e.run = rounds.NewRun(e.driver, rcfg, strategy, cfg.Arch, cfg.Checkpoint, cfg.CheckpointEvery,
		checkpoint.Component{Name: "run", S: engineRun{e}})
	return e
}

// ClientLatency returns a client's expected round latency under the
// engine's configuration.
func (e *Engine) ClientLatency(id int) float64 {
	return e.clients[id].Info(&e.cfg, e.modelBytes).Latency
}

// Run executes the configured number of rounds (or stops early at the
// target accuracy) and returns the result. After Restore it continues
// from the snapshot round; the returned Result spans the whole run,
// restored prefix included.
func (e *Engine) Run() *Result {
	for round := e.run.NextRound(); round < e.cfg.MaxRounds; round++ {
		out := e.driver.RunRound(round)
		e.roundsDone = round + 1
		if e.cfg.RecordSelections {
			e.selected = append(e.selected, out.Selected)
		}
		stop := false
		last := round == e.cfg.MaxRounds-1
		if (round+1)%e.cfg.EvalEvery == 0 || last {
			acc, loss, perClient := e.Evaluate()
			e.history = append(e.history, Point{Round: round + 1, Time: e.driver.Clock(), Acc: acc, Loss: loss})
			e.perClientAcc = perClient
			if e.cfg.Tracer != nil {
				e.cfg.Tracer.Emit(telemetry.Evaluated(round, acc, loss, e.driver.Clock()))
			}
			if e.met != nil {
				e.met.evalAcc.Set(acc)
				e.met.evalLoss.Set(loss)
			}
			if e.cfg.TargetAccuracy > 0 && acc >= e.cfg.TargetAccuracy {
				stop = true
			}
		}
		// The snapshot is taken after the round's evaluation so its
		// history prefix matches what an uninterrupted run would have
		// accumulated by this point.
		e.run.AfterRound(round + 1)
		if stop {
			break
		}
	}
	return &Result{
		Strategy:     e.strategy.Name(),
		History:      append([]Point(nil), e.history...),
		PerClientAcc: e.perClientAcc,
		Selected:     append([][]int(nil), e.selected...),
		Rounds:       e.roundsDone,
		Clock:        e.driver.Clock(),
		FinalParams:  append([]float64(nil), e.driver.Global()...),
	}
}

// RunRound executes one round through the shared driver and returns its
// outcome (see rounds.Outcome for buffer lifetimes).
func (e *Engine) RunRound(round int) rounds.Outcome { return e.driver.RunRound(round) }

// Clock returns the virtual time elapsed so far in seconds.
func (e *Engine) Clock() float64 { return e.driver.Clock() }

// Evaluate measures the current global model against every client's
// local test set, returning the unweighted mean accuracy and loss across
// clients (the paper's "average test accuracy on all devices") plus the
// per-client accuracies. perClient is freshly allocated (callers retain
// it in Result); the loss buffer is engine-owned and reused.
func (e *Engine) Evaluate() (meanAcc, meanLoss float64, perClient []float64) {
	perClient = make([]float64, len(e.clients))
	losses := e.evalLoss
	global := e.driver.Global()
	workers := min(len(e.workers), len(e.clients))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(tc *TrainContext) {
			defer wg.Done()
			model := tc.Model
			model.SetParamsVector(global)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(e.clients) {
					return
				}
				test := e.clients[i].Data.Test
				losses[i], perClient[i] = model.Evaluate(test.X, test.Y)
			}
		}(e.workers[w])
	}
	wg.Wait()
	return stats.Mean(perClient), stats.Mean(losses), perClient
}

// GlobalParams returns a copy of the current global parameter vector.
func (e *Engine) GlobalParams() []float64 { return append([]float64(nil), e.driver.Global()...) }

// Runner exposes the underlying round runtime — callers that need
// mode-specific surfaces (the async driver's introspection state, for
// example) type-assert on the returned value.
func (e *Engine) Runner() rounds.Runner { return e.driver }
