package metrics

import (
	"math"
	"strings"
	"testing"

	"haccs/internal/fl"
)

func history(points ...[3]float64) []fl.Point {
	out := make([]fl.Point, len(points))
	for i, p := range points {
		out[i] = fl.Point{Round: i + 1, Time: p[0], Acc: p[1], Loss: p[2]}
	}
	return out
}

func TestTTAInterpolates(t *testing.T) {
	h := history([3]float64{10, 0.2, 1}, [3]float64{20, 0.6, 0.5})
	got, ok := TTA(h, 0.4)
	if !ok {
		t.Fatal("target not reached")
	}
	// Linear between (10, 0.2) and (20, 0.6): 0.4 at t=15.
	if math.Abs(got-15) > 1e-9 {
		t.Errorf("TTA = %v, want 15", got)
	}
}

func TestTTAExactPoint(t *testing.T) {
	h := history([3]float64{10, 0.5, 1})
	got, ok := TTA(h, 0.5)
	if !ok || got != 10 {
		t.Errorf("TTA = %v, %v", got, ok)
	}
}

func TestTTANeverReached(t *testing.T) {
	h := history([3]float64{10, 0.3, 1}, [3]float64{20, 0.4, 1})
	if _, ok := TTA(h, 0.9); ok {
		t.Error("TTA reported success for unreached target")
	}
}

func TestTTAFromZero(t *testing.T) {
	// First point already above target: interpolate from (0, 0).
	h := history([3]float64{10, 0.8, 1})
	got, ok := TTA(h, 0.4)
	if !ok {
		t.Fatal("not reached")
	}
	if math.Abs(got-5) > 1e-9 {
		t.Errorf("TTA = %v, want 5", got)
	}
}

func TestReduction(t *testing.T) {
	if r := Reduction(100, 80); math.Abs(r-0.2) > 1e-12 {
		t.Errorf("Reduction = %v", r)
	}
	if r := Reduction(100, 120); math.Abs(r+0.2) > 1e-12 {
		t.Errorf("negative reduction = %v", r)
	}
	if Reduction(0, 5) != 0 {
		t.Error("zero baseline should yield 0")
	}
}

func TestBestAccuracyAndAtTime(t *testing.T) {
	h := history([3]float64{10, 0.3, 1}, [3]float64{20, 0.7, 1}, [3]float64{30, 0.6, 1})
	if BestAccuracy(h) != 0.7 {
		t.Errorf("BestAccuracy = %v", BestAccuracy(h))
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("strategy", "tta")
	tab.AddRow("random", 123.456)
	tab.AddRow("haccs-P(y)", 78.9)
	s := tab.String()
	if !strings.Contains(s, "strategy") || !strings.Contains(s, "haccs-P(y)") {
		t.Errorf("table missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Errorf("table has %d lines:\n%s", len(lines), s)
	}
}

func TestTableRowWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTable("a", "b").AddRow("only-one")
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0.001234: "0.001234",
		1.23456:  "1.235",
		123.456:  "123.5",
		12345.6:  "12346",
		0:        "0.000",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
