package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"haccs/internal/stats"
)

// instance is one set-up copy of a workload's system, warmed up and
// ready for its first measured round.
type instance interface {
	// step runs one measured iteration — the round with the given index
	// plus everything the system does after it (evaluation, drift batch,
	// checkpoint) — and returns the selected-client exchanges attempted
	// and failed in it.
	step(round int) (attempted, failed int)
	// finish runs the end-of-run correctness checks; rounds is the next
	// round index (warm-up plus measured rounds).
	finish(rounds int) []check
	// outputs are the exact results two runs of one seed must share.
	outputs() exactOutputs
	// layers adds the workload's per-layer metrics (traced pass only).
	layers(m layerMetrics, measuredRounds int)
	// close stops every goroutine and connection the instance started.
	close()
}

// check is one correctness check and its result.
type check struct {
	name   string
	ok     bool
	detail string
}

// exactOutputs are pure functions of the seed and the round count.
type exactOutputs struct {
	virtualTime float64 // driver virtual clock at the target
	globalFNV   uint64  // FNV-64a of the final global vector
	selectFNV   uint64  // FNV-64a of the selection stream
}

// block is one measured block: a fixed number of consecutive rounds,
// a whole number of the workload's own cadences (evaluation, drift
// injection, checkpoint), so every block holds the same work.
type block struct {
	lat     []float64 // per-round wall seconds
	wallSec float64   // wall time of the whole block
	cpuSec  float64   // process user+system CPU over the block
}

func (b block) rate() float64 { return float64(len(b.lat)) / b.wallSec }

// window is the measured part of a run.
type window struct {
	blocks    []block
	refMS     []float64 // one reference-kernel sample per block boundary
	attempted int
	failed    int
}

// blockBounds splits n consecutive rounds starting at first into
// equal blocks of size per; n must be a multiple of per.
func blockBounds(first, n, per int) [][2]int {
	if per <= 0 || n <= 0 || n%per != 0 {
		panic(fmt.Sprintf("benchmark: cannot split %d rounds into blocks of %d", n, per))
	}
	out := make([][2]int, 0, n/per)
	for lo := first; lo < first+n; lo += per {
		out = append(out, [2]int{lo, lo + per})
	}
	return out
}

// measure runs the blocks back to back from one goroutine: the next
// round starts when the previous one returns. At each block boundary —
// outside every block's wall — it samples the reference kernel once.
func measure(inst instance, first, blocks, per int) window {
	w := window{blocks: make([]block, 0, blocks)}
	lat := make([]float64, blocks*per) // pre-allocated: no bookkeeping allocation inside a block
	for i, bd := range blockBounds(first, blocks*per, per) {
		w.refMS = append(w.refMS, refSample())
		b := block{lat: lat[i*per : (i+1)*per]}
		cpu0 := cpuSeconds()
		t0 := time.Now()
		for r := bd[0]; r < bd[1]; r++ {
			s := time.Now()
			a, f := inst.step(r)
			b.lat[r-bd[0]] = time.Since(s).Seconds()
			w.attempted += a
			w.failed += f
		}
		b.wallSec = time.Since(t0).Seconds()
		b.cpuSec = cpuSeconds() - cpu0
		w.blocks = append(w.blocks, b)
	}
	w.refMS = append(w.refMS, refSample())
	return w
}

// quietShare is the share of a run's blocks the estimator keeps.
const quietShare = 6

// quiet returns the fastest sixth of the blocks, fastest first.
// Interference on a shared box comes in bursts of a second or so and
// only ever adds time, so the fastest blocks are the ones that saw the
// least of it.
func (w window) quiet() []block {
	order := append([]block(nil), w.blocks...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].wallSec < order[j].wallSec })
	return order[:max(1, len(order)/quietShare)]
}

// pool merges blocks into one: the rate, the median round and the CPU
// cost are taken over all their rounds together.
func pool(blocks []block) block {
	var q block
	for _, b := range blocks {
		q.lat = append(q.lat, b.lat...)
		q.wallSec += b.wallSec
		q.cpuSec += b.cpuSec
	}
	return q
}

// blockP95 is the median, over the given blocks, of each block's own
// 95th-percentile round. Every block holds the same work, so each one
// is a whole estimate of the tail; the median of them ignores a burst
// that reached into up to half of the kept blocks, where the 95th
// percentile of the pooled rounds — with few rounds, its second-largest
// — is moved by two slow rounds anywhere. beyond is how many of the
// blocks' rounds are slower than the value returned.
func blockP95(blocks []block) (v float64, beyond int) {
	p95s := make([]float64, len(blocks))
	for i, b := range blocks {
		p95s[i], _ = quantile(sortedCopy(b.lat), 0.95)
	}
	v = median(p95s)
	for _, b := range blocks {
		for _, l := range b.lat {
			if l > v {
				beyond++
			}
		}
	}
	return v, beyond
}

// quantile returns the nearest-rank q-quantile of sorted and how many
// samples lie beyond it. A percentile is only reported as trustworthy
// when at least ten samples lie beyond (see tailSamples).
func quantile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx], n - 1 - idx
}

// tailSamples is the number of samples that must lie beyond a reported
// percentile.
const tailSamples = 10

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the middle value of a non-empty sample.
func median(v []float64) float64 { return stats.Percentile(v, 50) }

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set (the kernel's high-water
// mark, the VmHWM line of /proc/self/status), in MiB. Linux reports
// ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// refBuf is larger than a core's private caches, so the reference
// kernel feels a neighbour's memory traffic the way the workloads do.
var refBuf [1 << 20]uint64 // 8 MiB

// refKernel is a fixed pure-Go computation (~2 ms on this box) that
// touches no benchmark state: one read-modify-write per cache line of
// refBuf, twice over. How long it takes says how busy the machine was,
// never how fast the program is.
func refKernel() uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < len(refBuf); i += 8 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			refBuf[i] += x
		}
	}
	return refBuf[x%uint64(len(refBuf))]
}

var refSink uint64

// refSample times the reference kernel once, in milliseconds.
func refSample() float64 {
	s := time.Now()
	refSink += refKernel()
	return time.Since(s).Seconds() * 1e3
}

// noiseThreshold flags a run whose reference kernel's p95 exceeded its
// floor by this factor. The flag is diagnostic: it never alters or
// drops a measurement.
const noiseThreshold = 1.3

func refStats(samples []float64) (floor, p95 float64, noisy bool) {
	s := sortedCopy(samples)
	if len(s) == 0 {
		return 0, 0, false
	}
	floor = s[0]
	p95, _ = quantile(s, 0.95)
	return floor, p95, p95 > noiseThreshold*floor
}

// memDelta is the allocation activity between two runtime.MemStats
// readings.
type memDelta struct {
	allocBytes, mallocs uint64
	gcCycles            uint32
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(a, b runtime.MemStats) memDelta {
	return memDelta{allocBytes: b.TotalAlloc - a.TotalAlloc, mallocs: b.Mallocs - a.Mallocs, gcCycles: b.NumGC - a.NumGC}
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvInt folds one integer, low byte first, into a running FNV-64a
// hash without allocating (the selection stream is hashed inside
// measured rounds).
func fnvInt(h uint64, v int) uint64 {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		h ^= u & 0xff
		h *= fnvPrime64
		u >>= 8
	}
	return h
}

// hashFloats is the FNV-64a hash of a vector's bit patterns.
func hashFloats(v []float64) uint64 {
	h := uint64(fnvOffset64)
	for _, x := range v {
		h = fnvInt(h, int(math.Float64bits(x)))
	}
	return h
}

func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func allEqual(v []float64) bool {
	for _, x := range v {
		if x != v[0] {
			return false
		}
	}
	return true
}
