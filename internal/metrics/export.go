package metrics

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"haccs/internal/fl"
)

// WriteHistoryCSV writes a training history as CSV with columns
// round,time,accuracy,loss — the format external plotting tools consume
// to redraw the paper's curves.
func WriteHistoryCSV(w io.Writer, history []fl.Point) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"round", "time", "accuracy", "loss"}); err != nil {
		return fmt.Errorf("metrics: write header: %w", err)
	}
	for _, p := range history {
		rec := []string{
			strconv.Itoa(p.Round),
			strconv.FormatFloat(p.Time, 'g', -1, 64),
			strconv.FormatFloat(p.Acc, 'g', -1, 64),
			strconv.FormatFloat(p.Loss, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("metrics: write row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// RunSummary is the JSON-exportable digest of one training run.
type RunSummary struct {
	Strategy      string     `json:"strategy"`
	Rounds        int        `json:"rounds"`
	VirtualTime   float64    `json:"virtual_time_sec"`
	FinalAccuracy float64    `json:"final_accuracy"`
	BestAccuracy  float64    `json:"best_accuracy"`
	TTA           *float64   `json:"tta_sec,omitempty"`
	Target        float64    `json:"target_accuracy,omitempty"`
	History       []fl.Point `json:"history"`
}

// Summarize digests a result for JSON export; target 0 skips TTA.
func Summarize(res *fl.Result, target float64) RunSummary {
	s := RunSummary{
		Strategy:      res.Strategy,
		Rounds:        res.Rounds,
		VirtualTime:   res.Clock,
		FinalAccuracy: res.FinalAccuracy(),
		BestAccuracy:  BestAccuracy(res.History),
		Target:        target,
		History:       res.History,
	}
	if target > 0 {
		if tta, ok := TTA(res.History, target); ok {
			s.TTA = &tta
		}
	}
	return s
}

// WriteJSON writes the summary as indented JSON.
func (s RunSummary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
