package main

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"net"
	"testing"
)

func TestBlockBounds(t *testing.T) {
	got := blockBounds(50, 30, 10)
	want := [][2]int{{50, 60}, {60, 70}, {70, 80}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("block %d: got %v, want %v", i, got[i], want[i])
		}
	}
	for _, bad := range [][3]int{{0, 25, 10}, {0, 0, 10}, {0, 10, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("blockBounds%v did not panic", bad)
				}
			}()
			blockBounds(bad[0], bad[1], bad[2])
		}()
	}
}

func TestQuantileSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	cases := []struct {
		n          int
		q          float64
		want       float64
		wantBeyond int
	}{
		{200, 0.95, 190, 10}, // 200 rounds is the fewest that leave ten beyond p95
		{150, 0.95, 143, 7},
		{40, 0.95, 38, 2},
		{200, 0.50, 100, 100},
		{1, 0.95, 1, 0},
		{10, 1.0, 10, 0},
		{10, 0.0, 1, 9},
	}
	for _, c := range cases {
		v, beyond := quantile(seq(c.n), c.q)
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("quantile(1..%d, %v) = %v with %d beyond, want %v with %d", c.n, c.q, v, beyond, c.want, c.wantBeyond)
		}
		if (beyond >= tailSamples) != (c.wantBeyond >= tailSamples) {
			t.Errorf("n=%d q=%v: ten-beyond rule disagrees", c.n, c.q)
		}
	}
	if v, beyond := quantile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("quantile of nothing = %v, %d", v, beyond)
	}
}

func TestQuietPoolsFastestSixth(t *testing.T) {
	var w window
	for _, wall := range []float64{3, 1, 2, 6, 5, 4, 8, 7, 9, 12, 11, 10} {
		w.blocks = append(w.blocks, block{lat: []float64{wall / 2, wall / 2}, wallSec: wall, cpuSec: wall / 10})
	}
	kept := w.quiet()
	if len(kept) != 2 || kept[0].wallSec != 1 || kept[1].wallSec != 2 {
		t.Fatalf("quiet kept %+v, want the two fastest blocks, fastest first", kept)
	}
	q := pool(kept)
	if len(q.lat) != 4 || q.wallSec != 3 {
		t.Fatalf("pooled %d rounds over %v s, want 4 rounds over 3 s", len(q.lat), q.wallSec)
	}
	if got, want := q.rate(), 4.0/3; got != want {
		t.Errorf("rate %v, want %v", got, want)
	}
	if got := (window{blocks: w.blocks[:2]}).quiet(); len(got) != 1 || got[0].wallSec != 1 {
		t.Errorf("with fewer blocks than the share, quiet must keep the single fastest; got %+v", got)
	}
	if w.blocks[0].wallSec != 3 {
		t.Error("quiet reordered the window's own blocks")
	}
}

func TestBlockP95IgnoresDisturbedBlocks(t *testing.T) {
	// Five-round blocks whose last round is the cadence's slow one; a
	// burst doubled the slow round of one block and a fast round of another.
	blocks := []block{
		{lat: []float64{10, 10, 10, 10, 16}},
		{lat: []float64{10, 10, 10, 10, 34}},
		{lat: []float64{10, 21, 10, 10, 17}},
		{lat: []float64{10, 10, 10, 10, 18}},
		{lat: []float64{10, 10, 10, 10, 17}},
	}
	v, beyond := blockP95(blocks)
	if v != 18 { // block p95s 16 34 21 18 17
		t.Errorf("blockP95 = %v, want 18", v)
	}
	if beyond != 2 {
		t.Errorf("%d rounds beyond, want 2 (34 and 21)", beyond)
	}
	if pooled, _ := quantile(sortedCopy(pool(blocks).lat), 0.95); pooled != 21 {
		t.Errorf("pooled p95 = %v; the test means to show it reads a disturbed round, 21", pooled)
	}
	if v, beyond := blockP95(blocks[:1]); v != 16 || beyond != 0 {
		t.Errorf("one block: %v with %d beyond, want its own p95, 16, with none beyond", v, beyond)
	}
}

func TestCountingConn(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	var counts wireCounts
	c := &countingConn{Conn: a, counts: &counts}
	go func() {
		buf := make([]byte, 5)
		io.ReadFull(b, buf)
		b.Write([]byte("abc"))
		b.Write([]byte("defg"))
	}()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if counts.writeBytes.Load() != 5 || counts.writes.Load() != 1 || counts.readBytes.Load() != 7 {
		t.Errorf("counted %d bytes in %d writes out, %d bytes in; want 5 in 1, 7",
			counts.writeBytes.Load(), counts.writes.Load(), counts.readBytes.Load())
	}
}

func TestFNVIntMatchesStdlib(t *testing.T) {
	h := fnv.New64a()
	got := uint64(fnvOffset64)
	for _, v := range []int{0, 1, 19999, 1 << 40} {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
		got = fnvInt(got, v)
	}
	if got != h.Sum64() {
		t.Errorf("fnvInt chain %x, hash/fnv %x", got, h.Sum64())
	}
}

func TestRefStatsFlagsNoise(t *testing.T) {
	quiet := make([]float64, 40)
	for i := range quiet {
		quiet[i] = 2 + float64(i%4)/100
	}
	if _, _, noisy := refStats(quiet); noisy {
		t.Error("a flat reference series was flagged noisy")
	}
	busy := append(append([]float64(nil), quiet...), 3, 3.1, 3.2, 3.3)
	floor, p95, noisy := refStats(busy)
	if !noisy || floor != 2 || p95 < 3 {
		t.Errorf("floor %v p95 %v noisy %v; want the burst flagged", floor, p95, noisy)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "round", ID: "a", Dur: 10},
		{Name: "select", ID: "b", Parent: "a", Dur: 2},
		{Name: "dispatch", ID: "c", Parent: "a", Dur: 5},
		{Name: "train", ID: "d", Parent: "c", Dur: 4},
		{Name: "round", ID: "e", Dur: 6},
		{Name: "select", ID: "f", Parent: "e", Dur: 1},
	}
	st := totals(spans)
	if st.self["round"] != 8 || st.self["dispatch"] != 1 || st.total["select"] != 3 || st.count["round"] != 2 {
		t.Errorf("self(round)=%v self(dispatch)=%v total(select)=%v count(round)=%v",
			st.self["round"], st.self["dispatch"], st.total["select"], st.count["round"])
	}
	if got := st.perRoundMS("select", 2); got != 1500 {
		t.Errorf("perRoundMS = %v, want 1500", got)
	}
}
