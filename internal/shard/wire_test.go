package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"strings"
	"testing"

	"haccs/internal/rounds"
	"haccs/internal/session"
)

func TestEnvelopeCheck(t *testing.T) {
	var kind session.ErrorKind
	get := func(e Envelope) session.ErrorKind {
		err := e.Check()
		if err == nil {
			return ""
		}
		var pe *session.ProtocolError
		if !errors.As(err, &pe) {
			t.Fatalf("error %v is not a *session.ProtocolError", err)
		}
		return pe.Kind
	}
	if kind = get(Envelope{}); kind != session.ErrEmptyEnvelope {
		t.Errorf("empty envelope -> %q", kind)
	}
	if kind = get(Envelope{Hello: &Hello{}, Bye: &Bye{}}); kind != session.ErrAmbiguousEnvelope {
		t.Errorf("two-field envelope -> %q", kind)
	}
	if err := (&Envelope{Cmd: &rounds.ShardCmd{}}).Check(); err != nil {
		t.Errorf("single-field envelope rejected: %v", err)
	}
}

func TestHelloCheck(t *testing.T) {
	ok := Hello{
		ShardID:   1,
		Clients:   []rounds.ShardClient{{ID: 0, Latency: 1}, {ID: 2, Latency: 3}},
		SketchDim: 2,
		Reps:      [][]float64{{0.5, 0.5}},
		RepCounts: []int{2},
	}
	if err := ok.check(); err != nil {
		t.Fatalf("valid hello rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(h *Hello)
	}{
		{"negative shard", func(h *Hello) { h.ShardID = -1 }},
		{"empty roster", func(h *Hello) { h.Clients = nil }},
		{"negative client", func(h *Hello) { h.Clients[0].ID = -4 }},
		{"nan latency", func(h *Hello) { h.Clients[1].Latency = math.NaN() }},
		{"counts mismatch", func(h *Hello) { h.RepCounts = nil }},
		{"rep dim", func(h *Hello) { h.Reps[0] = []float64{1} }},
		{"empty rep", func(h *Hello) { h.RepCounts[0] = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := ok
			h.Clients = append([]rounds.ShardClient(nil), ok.Clients...)
			h.Reps = [][]float64{append([]float64(nil), ok.Reps[0]...)}
			h.RepCounts = append([]int(nil), ok.RepCounts...)
			tc.mutate(&h)
			if h.check() == nil {
				t.Error("accepted")
			}
		})
	}
}

func TestCheckReport(t *testing.T) {
	good := func() *Report {
		return &Report{ShardID: 3, Round: 7, ShardReport: rounds.ShardReport{
			Partial: []float64{1, 2}, Samples: 2,
			Reporters: []rounds.Result{{ClientID: 5, NumSamples: 2, Loss: 0.5}},
		}}
	}
	if _, err := checkReport(&Envelope{Report: good()}, 3, 7); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	cases := []struct {
		name   string
		env    Envelope
		kind   session.ErrorKind
		mutate func(r *Report)
	}{
		{name: "not a report", env: Envelope{Hello: &Hello{}}, kind: session.ErrUnexpectedMessage},
		{name: "empty envelope", env: Envelope{}, kind: session.ErrEmptyEnvelope},
		{name: "wrong shard", kind: ErrWrongShard, mutate: func(r *Report) { r.ShardID = 4 }},
		{name: "wrong round", kind: session.ErrWrongRound, mutate: func(r *Report) { r.Round = 8 }},
		{name: "negative samples", kind: ErrBadReport, mutate: func(r *Report) { r.Samples = -1 }},
		{name: "nan partial", kind: ErrBadReport, mutate: func(r *Report) { r.Partial[0] = math.NaN() }},
		{name: "zero-sample reporter", kind: ErrBadReport, mutate: func(r *Report) { r.Reporters[0].NumSamples = 0 }},
		{name: "nan clock", kind: ErrBadReport, mutate: func(r *Report) { r.LocalClock = math.NaN() }},
		{name: "reporter with params", kind: ErrBadReport, mutate: func(r *Report) { r.Reporters[0].Params = []float64{1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := tc.env
			if tc.mutate != nil {
				rep := good()
				tc.mutate(rep)
				env = Envelope{Report: rep}
			}
			_, err := checkReport(&env, 3, 7)
			var pe *session.ProtocolError
			if !errors.As(err, &pe) || pe.Kind != tc.kind {
				t.Fatalf("err = %v, want kind %q", err, tc.kind)
			}
			// Every violation names the session and round it happened on,
			// including the envelope-union ones Check itself cannot know.
			if pe.PeerID != 3 || pe.Round != 7 {
				t.Errorf("error stamped shard %d round %d, want 3 and 7", pe.PeerID, pe.Round)
			}
		})
	}
}

// FuzzReportDecode feeds arbitrary bytes through the root's receive
// path for a Report — Codec.Decode, then checkReport — and checks that
// it never panics and that every refusal is a *session.ProtocolError
// stamped with the session's shard and round.
func FuzzReportDecode(f *testing.F) {
	for _, seed := range reportSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !fillsTrailer(data) {
			return
		}
		var env Envelope
		if session.NewCodec(bytes.NewBuffer(data)).Decode(&env) != nil {
			return
		}
		if _, err := checkReport(&env, 3, 7); err != nil {
			pe, ok := err.(*session.ProtocolError)
			if !ok || pe.PeerID != 3 || pe.Round != 7 {
				t.Fatalf("checkReport error %v is not a protocol error stamped shard 3, round 7", err)
			}
		}
	})
}

// reportSeeds are the hand-made starting points, also committed under
// testdata/fuzz/FuzzReportDecode: a valid report, one whose reporter
// carries parameters, an empty envelope, and two messages in one.
func reportSeeds(t testing.TB) [][]byte {
	valid := &Report{ShardID: 3, Round: 7, ShardReport: rounds.ShardReport{
		Partial: []float64{1, 2}, Samples: 2,
		Reporters: []rounds.Result{{ClientID: 5, NumSamples: 2, Loss: 0.5, Summary: []float64{1, 1}}},
		Cut:       []int{6}, Failed: []int{8}, Sessions: 4,
	}}
	withParams := *valid
	withParams.Reporters = []rounds.Result{{ClientID: 5, NumSamples: 2, Loss: 0.5, Params: []float64{9}}}
	var seeds [][]byte
	for _, env := range []Envelope{{Report: valid}, {Report: &withParams}, {}, {Report: valid, Bye: &Bye{}}} {
		var b bytes.Buffer
		if err := session.NewCodec(&b).Encode(env); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, b.Bytes())
	}
	return seeds
}

// fillsTrailer reports whether the vector trailer the first message of
// data announces, if any, fits in the bytes that follow it. Decode
// sizes its buffer from the announced count (up to session.MaxVector
// floats) before reading, so the fuzz target skips inputs that would
// allocate for a vector they cannot carry.
func fillsTrailer(data []byte) bool {
	r := bytes.NewReader(data)
	var env Envelope
	if gob.NewDecoder(r).Decode(&env) != nil || env.Vector() == nil {
		return true
	}
	var count uint32
	if binary.Read(r, binary.LittleEndian, &count) != nil {
		return true
	}
	return uint64(count) <= uint64(r.Len()/8)
}

func TestProtocolErrorFormat(t *testing.T) {
	e := hop.Err(session.ErrWrongRound, 2, 5, "report for round 9")
	want := "shard: wrong_round (shard 2, round 5): report for round 9"
	if e.Error() != want {
		t.Errorf("Error() = %q, want %q", e.Error(), want)
	}
	if msg := hop.Err(session.ErrEmptyEnvelope, -1, -1, "").Error(); !strings.HasPrefix(msg, "shard: empty_envelope") {
		t.Errorf("anonymous error = %q", msg)
	}
}
