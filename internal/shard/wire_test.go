package shard

import (
	"errors"
	"math"
	"strings"
	"testing"

	"haccs/internal/rounds"
)

func TestEnvelopeCheck(t *testing.T) {
	var kind ProtocolErrorKind
	get := func(e Envelope) ProtocolErrorKind {
		err := e.Check()
		if err == nil {
			return ""
		}
		var pe *ProtocolError
		if !errors.As(err, &pe) {
			t.Fatalf("error %v is not a *ProtocolError", err)
		}
		return pe.Kind
	}
	if kind = get(Envelope{}); kind != ErrEmptyEnvelope {
		t.Errorf("empty envelope -> %q", kind)
	}
	if kind = get(Envelope{Hello: &Hello{}, Bye: &Bye{}}); kind != ErrAmbiguousEnvelope {
		t.Errorf("two-field envelope -> %q", kind)
	}
	if err := (&Envelope{Cmd: &Cmd{}}).Check(); err != nil {
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
		return &Report{
			ShardID: 3, Round: 7,
			Partial: []float64{1, 2}, Samples: 2,
			Reporters: []WireResult{{ClientID: 5, NumSamples: 2, Loss: 0.5}},
		}
	}
	if _, err := checkReport(&Envelope{Report: good()}, 3, 7); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	cases := []struct {
		name   string
		env    Envelope
		kind   ProtocolErrorKind
		mutate func(r *Report)
	}{
		{name: "not a report", env: Envelope{Hello: &Hello{}}, kind: ErrUnexpectedMessage},
		{name: "empty envelope", env: Envelope{}, kind: ErrEmptyEnvelope},
		{name: "wrong shard", kind: ErrWrongShard, mutate: func(r *Report) { r.ShardID = 4 }},
		{name: "wrong round", kind: ErrWrongRound, mutate: func(r *Report) { r.Round = 8 }},
		{name: "negative samples", kind: ErrBadReport, mutate: func(r *Report) { r.Samples = -1 }},
		{name: "nan partial", kind: ErrBadReport, mutate: func(r *Report) { r.Partial[0] = math.NaN() }},
		{name: "zero-sample reporter", kind: ErrBadReport, mutate: func(r *Report) { r.Reporters[0].NumSamples = 0 }},
		{name: "nan clock", kind: ErrBadReport, mutate: func(r *Report) { r.LocalClock = math.NaN() }},
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
			var pe *ProtocolError
			if !errors.As(err, &pe) || pe.Kind != tc.kind {
				t.Fatalf("err = %v, want kind %q", err, tc.kind)
			}
			// Every violation names the session and round it happened on,
			// including the envelope-union ones Check itself cannot know.
			if pe.ShardID != 3 || pe.Round != 7 {
				t.Errorf("error stamped shard %d round %d, want 3 and 7", pe.ShardID, pe.Round)
			}
		})
	}
}

func TestProtocolErrorFormat(t *testing.T) {
	e := protoErr(ErrWrongRound, 2, 5, "report for round 9")
	want := "shard: wrong_round (shard 2, round 5): report for round 9"
	if e.Error() != want {
		t.Errorf("Error() = %q, want %q", e.Error(), want)
	}
	if msg := protoErr(ErrEmptyEnvelope, -1, -1, "").Error(); !strings.HasPrefix(msg, "shard: empty_envelope") {
		t.Errorf("anonymous error = %q", msg)
	}
}
