package metrics

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"testing"

	"haccs/internal/fl"
)

func sampleHistory() []fl.Point {
	return []fl.Point{
		{Round: 5, Time: 10.5, Acc: 0.3, Loss: 1.9},
		{Round: 10, Time: 21, Acc: 0.55, Loss: 1.2},
	}
}

func TestWriteHistoryCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHistoryCSV(&buf, sampleHistory()); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("got %d records", len(records))
	}
	if records[0][0] != "round" || records[0][3] != "loss" {
		t.Errorf("header %v", records[0])
	}
	if records[1][0] != "5" || records[2][2] != "0.55" {
		t.Errorf("rows %v", records[1:])
	}
}

func TestSummarizeAndJSON(t *testing.T) {
	res := &fl.Result{
		Strategy: "haccs-P(y)",
		Rounds:   10,
		Clock:    21,
		History:  sampleHistory(),
	}
	s := Summarize(res, 0.5)
	if s.FinalAccuracy != 0.55 || s.BestAccuracy != 0.55 || s.Rounds != 10 {
		t.Errorf("summary %+v", s)
	}
	if s.TTA == nil {
		t.Fatal("TTA missing despite reached target")
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back RunSummary
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back.Strategy != "haccs-P(y)" || len(back.History) != 2 {
		t.Errorf("round trip lost data: %+v", back)
	}
	// Unreached target: TTA omitted.
	s2 := Summarize(res, 0.99)
	if s2.TTA != nil {
		t.Error("TTA present for unreached target")
	}
	// Zero target: skipped entirely.
	if s3 := Summarize(res, 0); s3.TTA != nil {
		t.Error("TTA present for zero target")
	}
}
