package shard

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"slices"
	"testing"
	"time"

	"haccs/internal/checkpoint"
	"haccs/internal/fleet"
	"haccs/internal/flnet"
	"haccs/internal/rounds"
	"haccs/internal/session"
	"haccs/internal/telemetry"
)

// intTrainer returns the deterministic integer trainer used across the
// equivalence tests: out = params + (id+1) elementwise, one sample,
// loss = id. Integer updates with power-of-2 reporter counts keep
// every FedAvg expression exact in float64, so flat and hierarchical
// aggregation agree bitwise.
func intTrainer(id, dim int) flnet.TrainerFunc {
	return func(round int, params []float64) ([]float64, int, float64) {
		out := make([]float64, dim)
		for i := range out {
			var p float64
			if i < len(params) {
				p = params[i]
			}
			out[i] = p + float64(id+1)
		}
		return out, 1, float64(id)
	}
}

func testLatency(id int) float64 {
	// Dyadic latencies 1,2,4 with clients 6 and 7 as deadline-5
	// stragglers at 8.
	if id >= 6 {
		return 8
	}
	return []float64{1, 2, 4}[id%3]
}

// startFleet connects n flnet clients with the integer trainer to a
// fresh server and returns it seated.
func startFleet(t *testing.T, ids []int, dim int) *flnet.Server {
	t.Helper()
	srv, err := flnet.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		c := &flnet.Client{
			Reg: flnet.Register{
				ClientID:        id,
				LabelCounts:     oneHot(id % 4),
				LatencyEstimate: testLatency(id),
				NumSamples:      1,
			},
			Trainer: intTrainer(id, dim),
		}
		go c.Run(srv.Addr())
	}
	if _, err := srv.AcceptClients(len(ids)); err != nil {
		t.Fatal(err)
	}
	srv.ServeReconnects()
	t.Cleanup(func() { srv.Shutdown() })
	return srv
}

// startAgent builds and runs a shard agent over its fleet slice.
func startAgent(t *testing.T, shardID int, ids []int, dim int, rootAddr string) *Agent {
	t.Helper()
	srv := startFleet(t, ids, dim)
	a, err := NewAgent(AgentConfig{
		ShardID:     shardID,
		Root:        rootAddr,
		Server:      srv,
		RedialEvery: 5 * time.Millisecond,
		RedialFor:   10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	go a.Run()
	t.Cleanup(a.Close)
	return a
}

// fixedStrategy selects the available prefix of a preferred order —
// deterministic and stateless, so it survives a checkpoint resume
// without a strategy snapshot.
type fixedStrategy struct{ preferred []int }

func (s *fixedStrategy) Select(round int, available []bool, k int) []int {
	out := make([]int, 0, k)
	for _, id := range s.preferred {
		if len(out) == k {
			break
		}
		if id < len(available) && available[id] {
			out = append(out, id)
		}
	}
	return out
}

func (s *fixedStrategy) Update(round int, selected []int, losses []float64) {}

const testDim = 3

// TestSyncEquivalenceOverTCP is the golden equivalence check: two
// shard coordinators plus a root over real loopback TCP produce a
// bit-identical global trajectory (parameters and virtual clock) to
// the flat single-coordinator sync path over the same roster, seed and
// deadline — including a round with deadline-cut stragglers.
func TestSyncEquivalenceOverTCP(t *testing.T) {
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7}
	// Rounds select 4 clients; the preferred order brings the two
	// stragglers (6, 7) in so the cut path is exercised with a
	// power-of-2 reporter count.
	preferred := []int{0, 1, 6, 7, 2, 3, 4, 5}

	// Flat reference: one coordinator over all eight clients.
	flatSrv := startFleet(t, ids, testDim)
	flat, err := flnet.NewCoordinator(flatSrv, flnet.CoordinatorConfig{
		ClientsPerRound: 4,
		Deadline:        5,
	}, &fixedStrategy{preferred}, make([]float64, testDim))
	if err != nil {
		t.Fatal(err)
	}

	// Sharded run: even clients on shard 0, odd on shard 1.
	rootSrv, err := NewRootServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rootSrv.Shutdown() })
	startAgent(t, 0, []int{0, 2, 4, 6}, testDim, rootSrv.Addr())
	startAgent(t, 1, []int{1, 3, 5, 7}, testDim, rootSrv.Addr())
	if _, err := rootSrv.AcceptShards(2); err != nil {
		t.Fatal(err)
	}
	rootSrv.ServeReconnects()
	root, err := NewRoot(rootSrv, RootConfig{
		ClientsPerRound: 4,
		Deadline:        5,
	}, &fixedStrategy{preferred}, make([]float64, testDim))
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 5; round++ {
		fo := flat.RunRound(round)
		ho := root.RunRound(round)
		if len(fo.Reporters) != len(ho.Reporters) {
			t.Fatalf("round %d: %d flat reporters, %d sharded", round, len(fo.Reporters), len(ho.Reporters))
		}
		if flat.Clock() != root.Clock() {
			t.Fatalf("round %d: clock %v flat, %v sharded", round, flat.Clock(), root.Clock())
		}
		fg, hg := flat.Global(), root.Global()
		for i := range fg {
			if fg[i] != hg[i] {
				t.Fatalf("round %d: global[%d] = %v flat, %v sharded", round, i, fg[i], hg[i])
			}
		}
	}
	// The straggler rounds must actually have cut someone, or the test
	// is weaker than it claims.
	if root.Driver().Clock() == 0 {
		t.Fatal("clock never advanced")
	}
	st := root.ShardStatuses()
	if len(st) != 2 || st[0].Clients != 4 || st[1].Clients != 4 {
		t.Fatalf("shard statuses = %+v", st)
	}
}

// TestRootCrashResume kills the root mid-run with Abort (no farewells
// — the crash path), rebuilds a fresh RootServer on the same address,
// re-admits the redialing shards, restores the latest checkpoint and
// finishes the schedule. The trajectory must match an uninterrupted
// run bitwise.
func TestRootCrashResume(t *testing.T) {
	const totalRounds = 6
	preferred := []int{0, 1, 2, 3, 4, 5}

	runRounds := func(root *Root, from, to int) {
		for r := from; r < to; r++ {
			root.RunRound(r)
		}
	}

	// Reference: uninterrupted run.
	refSrv, err := NewRootServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { refSrv.Shutdown() })
	startAgent(t, 0, []int{0, 2, 4}, testDim, refSrv.Addr())
	startAgent(t, 1, []int{1, 3, 5}, testDim, refSrv.Addr())
	if _, err := refSrv.AcceptShards(2); err != nil {
		t.Fatal(err)
	}
	refSrv.ServeReconnects()
	ref, err := NewRoot(refSrv, RootConfig{ClientsPerRound: 4, Deadline: 5},
		&fixedStrategy{preferred}, make([]float64, testDim))
	if err != nil {
		t.Fatal(err)
	}
	runRounds(ref, 0, totalRounds)

	// Crashy run with a checkpoint every round.
	store, err := checkpoint.NewStore(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := NewRootServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv1.Addr()
	startAgent(t, 0, []int{0, 2, 4}, testDim, addr)
	startAgent(t, 1, []int{1, 3, 5}, testDim, addr)
	if _, err := srv1.AcceptShards(2); err != nil {
		t.Fatal(err)
	}
	srv1.ServeReconnects()
	root1, err := NewRoot(srv1, RootConfig{
		ClientsPerRound: 4,
		Deadline:        5,
		Checkpoint:      store,
		CheckpointEvery: 1,
	}, &fixedStrategy{preferred}, make([]float64, testDim))
	if err != nil {
		t.Fatal(err)
	}
	runRounds(root1, 0, 3)
	if err := srv1.Abort(); err != nil {
		t.Fatal(err)
	}

	// Restart: same address, shards redial and re-offer their rosters.
	srv2, err := NewRootServer(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Shutdown() })
	if _, err := srv2.AcceptShards(2); err != nil {
		t.Fatal(err)
	}
	srv2.ServeReconnects()
	root2, err := NewRoot(srv2, RootConfig{
		ClientsPerRound: 4,
		Deadline:        5,
		Checkpoint:      store,
		CheckpointEvery: 1,
	}, &fixedStrategy{preferred}, make([]float64, testDim))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if err := root2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if root2.NextRound() != 3 {
		t.Fatalf("NextRound = %d after restoring round-3 snapshot", root2.NextRound())
	}
	runRounds(root2, root2.NextRound(), totalRounds)

	if ref.Clock() != root2.Clock() {
		t.Fatalf("clock %v uninterrupted, %v resumed", ref.Clock(), root2.Clock())
	}
	for i := range ref.Global() {
		if ref.Global()[i] != root2.Global()[i] {
			t.Fatalf("global[%d] = %v uninterrupted, %v resumed", i, ref.Global()[i], root2.Global()[i])
		}
	}
}

// TestReconnectRosterValidation: the admission loop refuses a
// reconnect that re-offers a different roster (or an unknown shard)
// with a Bye instead of seating it.
func TestReconnectRosterValidation(t *testing.T) {
	rootSrv, err := NewRootServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rootSrv.Shutdown() })
	startAgent(t, 0, []int{0, 2}, testDim, rootSrv.Addr())
	startAgent(t, 1, []int{1, 3}, testDim, rootSrv.Addr())
	if _, err := rootSrv.AcceptShards(2); err != nil {
		t.Fatal(err)
	}
	rootSrv.ServeReconnects()
	if _, err := NewRoot(rootSrv, RootConfig{ClientsPerRound: 2},
		&fixedStrategy{preferred: []int{0, 1, 2, 3}}, make([]float64, testDim)); err != nil {
		t.Fatal(err)
	}

	tryHello := func(h Hello) *Envelope {
		conn, err := net.Dial("tcp", rootSrv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		enc := session.NewCodec(conn)
		dec := enc
		if err := enc.Encode(Envelope{Hello: &h}); err != nil {
			t.Fatal(err)
		}
		// The same 2 s bound as expectClosed: a root that neither says Bye
		// nor closes fails here by name instead of hanging the suite.
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		var env Envelope
		if err := dec.Decode(&env); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatalf("hello %+v: no Bye within 2 s", h)
			}
			return nil // connection closed without farewell
		}
		return &env
	}

	wrongRoster := tryHello(Hello{ShardID: 0, Clients: []rounds.ShardClient{{ID: 9, Latency: 1}}})
	if wrongRoster == nil || wrongRoster.Bye == nil {
		t.Errorf("roster-changing reconnect got %+v, want Bye", wrongRoster)
	}
	unknown := tryHello(Hello{ShardID: 9, Clients: []rounds.ShardClient{{ID: 0, Latency: 1}}})
	if unknown == nil || unknown.Bye == nil {
		t.Errorf("unknown shard got %+v, want Bye", unknown)
	}
}

// TestAsyncOverTCP runs the hierarchical async mode end to end: shards
// run local buffered cycles under their θ budgets and the root merges
// their deltas; the run must aggregate, advance versions, and keep the
// per-shard base versions within the resync cadence.
func TestAsyncOverTCP(t *testing.T) {
	rootSrv, err := NewRootServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rootSrv.Shutdown() })
	startAgent(t, 0, []int{0, 2, 4}, testDim, rootSrv.Addr())
	startAgent(t, 1, []int{1, 3, 5}, testDim, rootSrv.Addr())
	if _, err := rootSrv.AcceptShards(2); err != nil {
		t.Fatal(err)
	}
	rootSrv.ServeReconnects()
	root, err := NewRoot(rootSrv, RootConfig{
		ClientsPerRound: 4,
		Mode:            rounds.ModeAsync,
		Async:           rounds.AsyncConfig{BufferK: 2, MaxStaleness: 4},
		ResyncEvery:     2,
	}, nil, make([]float64, testDim))
	if err != nil {
		t.Fatal(err)
	}
	if root.Budget(0)+root.Budget(1) != 4 {
		t.Fatalf("budgets %d + %d != k", root.Budget(0), root.Budget(1))
	}

	aggregated := 0
	for r := 0; r < 6; r++ {
		out := root.RunRound(r)
		if out.Aggregated {
			aggregated++
		}
	}
	if aggregated == 0 {
		t.Fatal("no async cycle aggregated")
	}
	if root.Driver().Version() == 0 {
		t.Fatal("version never advanced")
	}
	moved := false
	for _, v := range root.Global() {
		if v != 0 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("global never moved")
	}
	for _, st := range root.ShardStatuses() {
		if st.LocalClock <= 0 {
			t.Errorf("shard %d local clock %v", st.ID, st.LocalClock)
		}
		if root.Driver().Version()-st.BaseVersion > 2+1 {
			t.Errorf("shard %d base version %d lags version %d past the resync cadence",
				st.ID, st.BaseVersion, root.Driver().Version())
		}
	}
}

// TestRootDebugEndpoints reads the root's own debug surface after one
// sync round over two three-client shards: /debug/shards lists both,
// and /debug/fleet?shard= keeps one shard's clients while the
// fleet-wide aggregates stay global.
func TestRootDebugEndpoints(t *testing.T) {
	rootSrv, err := NewRootServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rootSrv.Shutdown() })
	fleetReg := fleet.NewRegistry(6, fleet.Options{})
	httpAddr, err := rootSrv.EnableTelemetry(telemetry.NewRegistry(), "127.0.0.1:0", fleetReg)
	if err != nil {
		t.Fatal(err)
	}
	startAgent(t, 0, []int{0, 2, 4}, testDim, rootSrv.Addr())
	startAgent(t, 1, []int{1, 3, 5}, testDim, rootSrv.Addr())
	if _, err := rootSrv.AcceptShards(2); err != nil {
		t.Fatal(err)
	}
	rootSrv.ServeReconnects()
	root, err := NewRoot(rootSrv, RootConfig{ClientsPerRound: 4, Fleet: fleetReg},
		&fixedStrategy{[]int{0, 1, 2, 3, 4, 5}}, make([]float64, testDim))
	if err != nil {
		t.Fatal(err)
	}
	root.RunRound(0)

	get := func(path string, into any) int {
		t.Helper()
		resp, err := http.Get("http://" + httpAddr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	var statuses []rounds.ShardStatus
	if code := get("/debug/shards", &statuses); code != http.StatusOK {
		t.Fatalf("/debug/shards: HTTP %d", code)
	}
	if len(statuses) != 2 || statuses[0].Clients != 3 || statuses[1].Clients != 3 {
		t.Fatalf("/debug/shards = %+v", statuses)
	}

	var st fleet.State
	if code := get("/debug/fleet?shard=1", &st); code != http.StatusOK {
		t.Fatalf("/debug/fleet?shard=1: HTTP %d", code)
	}
	var ids []int
	for _, c := range st.Clients {
		ids = append(ids, c.ID)
	}
	if !slices.Equal(ids, []int{1, 3, 5}) {
		t.Errorf("shard 1 clients = %v, want [1 3 5]", ids)
	}
	if st.Rounds != 1 {
		t.Errorf("fleet-wide rounds = %d, want 1", st.Rounds)
	}

	if code := get("/debug/fleet?shard=x", &st); code != http.StatusBadRequest {
		t.Errorf("/debug/fleet?shard=x: HTTP %d, want 400", code)
	}
}
