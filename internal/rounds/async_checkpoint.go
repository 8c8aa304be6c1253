package rounds

import (
	"fmt"
	"sort"

	"haccs/internal/checkpoint"
	"haccs/internal/fleet"
)

// asyncDriverStateVersion versions the async driver's gob payload.
const asyncDriverStateVersion = 1

// asyncEntryState is the serialized form of one in-flight (or, for
// completeness, buffered) update. Entries are trained eagerly at
// dispatch, so a snapshot taken between cycles carries finished deltas
// waiting on their virtual finish events — restoring replays the event
// queue, never the training.
type asyncEntryState struct {
	Client        int
	DispatchRound int
	ModelVersion  int
	Finish        float64
	Seq           uint64
	Delta         []float64
	Loss          float64
	NumSamples    int
	Summary       []float64
	HasStats      bool
	Stats         fleet.ClientStats
}

// asyncDriverState is the async driver's serialized mutable state
// beyond the global model (which travels as its own component): the
// clock, the model-version and dispatch-sequence counters, the dead
// mask, the event queue in canonical (Finish, Seq) order — pop order
// is a total order, so the heap's internal layout never needs to
// travel and identical logical states serialize to identical bytes —
// and the cumulative introspection counters.
type asyncDriverState struct {
	Version         int
	Clock           float64
	ModelVersion    int
	Seq             uint64
	Dead            []bool
	Queue           []asyncEntryState
	Buffer          []asyncEntryState
	BufferedTotal   int
	StaleDropped    int
	LastFlush       int
	StalenessCounts []int
}

func encodeEntry(e *asyncEntry) asyncEntryState {
	return asyncEntryState{
		Client:        e.client,
		DispatchRound: e.dispatchRound,
		ModelVersion:  e.version,
		Finish:        e.finish,
		Seq:           e.seq,
		Delta:         append([]float64(nil), e.delta...),
		Loss:          e.loss,
		NumSamples:    e.numSamples,
		Summary:       append([]float64(nil), e.summary...),
		HasStats:      e.stats != nil,
		Stats:         e.statsVal,
	}
}

func (d *AsyncDriver) decodeEntry(st asyncEntryState) (*asyncEntry, error) {
	if st.Client < 0 || st.Client >= len(d.proxies) {
		return nil, fmt.Errorf("rounds: async snapshot entry for client %d, driver has %d clients", st.Client, len(d.proxies))
	}
	if len(st.Delta) != len(d.global) {
		return nil, fmt.Errorf("rounds: async snapshot delta dim %d, driver model dim %d", len(st.Delta), len(d.global))
	}
	e := d.checkout()
	e.client = st.Client
	e.dispatchRound = st.DispatchRound
	e.version = st.ModelVersion
	e.finish = st.Finish
	e.seq = st.Seq
	e.delta = append(e.delta[:0], st.Delta...)
	e.loss = st.Loss
	e.numSamples = st.NumSamples
	if len(st.Summary) > 0 {
		e.summary = append(e.summary[:0], st.Summary...)
	} else {
		e.summary = nil
	}
	if st.HasStats {
		e.statsVal = st.Stats
		e.stats = &e.statsVal
	} else {
		e.stats = nil
	}
	return e, nil
}

// SnapshotState implements checkpoint.Snapshotter. The payload travels
// under the "driver_async" component name (distinct from the sync
// driver's "driver"), so resuming a run under the wrong mode fails
// loudly at the component table instead of silently misreading state.
func (d *AsyncDriver) SnapshotState() ([]byte, error) {
	queue := make([]asyncEntryState, len(d.queue))
	for i, e := range d.queue {
		queue[i] = encodeEntry(e)
	}
	sort.Slice(queue, func(i, j int) bool {
		if queue[i].Finish != queue[j].Finish {
			return queue[i].Finish < queue[j].Finish
		}
		return queue[i].Seq < queue[j].Seq
	})
	buffer := make([]asyncEntryState, len(d.buffer))
	for i, e := range d.buffer {
		buffer[i] = encodeEntry(e)
	}
	return checkpoint.EncodeGob("rounds: async driver state", asyncDriverState{
		Version:         asyncDriverStateVersion,
		Clock:           d.clock,
		ModelVersion:    d.version,
		Seq:             d.seq,
		Dead:            append([]bool(nil), d.dead...),
		Queue:           queue,
		Buffer:          buffer,
		BufferedTotal:   d.bufferedTotal,
		StaleDropped:    d.staleDroppedTotal,
		LastFlush:       d.insp.LastFlush,
		StalenessCounts: append([]int(nil), d.stalenessCounts...),
	})
}

// RestoreState implements checkpoint.Snapshotter. The driver must have
// been constructed over the same roster, model dimension and async
// configuration as the run that produced the snapshot; the event queue
// (including mid-buffer in-flight deltas) is rebuilt exactly, so the
// resumed trajectory is bit-identical to an uninterrupted one.
func (d *AsyncDriver) RestoreState(data []byte) error {
	var st asyncDriverState
	if err := checkpoint.DecodeGob("rounds: async driver state", data, &st); err != nil {
		return err
	}
	if st.Version != asyncDriverStateVersion {
		return fmt.Errorf("rounds: async driver state version %d, this build reads %d", st.Version, asyncDriverStateVersion)
	}
	if n := len(st.Queue) + len(st.Buffer); n > d.cfg.ClientsPerRound {
		return fmt.Errorf("rounds: async driver snapshot holds %d entries, concurrency is %d", n, d.cfg.ClientsPerRound)
	}
	if len(st.StalenessCounts) != inspStalenessSlots {
		return fmt.Errorf("rounds: async driver snapshot has %d staleness slots, this build uses %d", len(st.StalenessCounts), inspStalenessSlots)
	}
	if err := d.restoreClock("async driver", st.Clock, st.Dead); err != nil {
		return err
	}
	for _, e := range d.queue {
		d.release(e)
	}
	for _, e := range d.buffer {
		d.release(e)
	}
	d.queue = d.queue[:0]
	d.buffer = d.buffer[:0]
	for id, busy := range d.busy {
		if busy {
			d.setBusy(id, false)
		}
	}
	// Queue entries were serialized in canonical (Finish, Seq) order —
	// already a valid min-heap layout — so appending in order rebuilds
	// the exact pop sequence.
	for _, es := range st.Queue {
		e, err := d.decodeEntry(es)
		if err != nil {
			return err
		}
		d.queue = append(d.queue, e)
		d.setBusy(e.client, true)
	}
	for _, es := range st.Buffer {
		e, err := d.decodeEntry(es)
		if err != nil {
			return err
		}
		d.buffer = append(d.buffer, e)
	}
	d.version = st.ModelVersion
	d.seq = st.Seq
	d.bufferedTotal = st.BufferedTotal
	d.staleDroppedTotal = st.StaleDropped
	copy(d.stalenessCounts, st.StalenessCounts)
	d.refreshInspection(st.LastFlush)
	return nil
}
