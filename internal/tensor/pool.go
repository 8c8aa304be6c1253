package tensor

import (
	"runtime"
	"sync"
)

// The kernel pool is a process-wide set of persistent worker goroutines
// that large tensor kernels band their work across. Submitting a band is
// one struct send on a buffered channel — no per-call goroutine spawn,
// no closure allocation — so a training step that issues thousands of
// GEMMs over its lifetime stays allocation-free in steady state.
//
// Tasks are plain value structs tagged with an op code. The submitting
// goroutine always executes the first band itself (the pool only needs
// poolSize-1 workers to saturate the machine), and if the queue is full
// it runs the band inline instead of blocking, so submission can never
// deadlock even when many engine workers issue kernels concurrently.

type kernelOp uint8

const (
	opMatMulRows kernelOp = iota
	opMatMulCols
	opTransB
	opTransA
)

// kernelTask is one band of one kernel invocation. lo/hi select the band
// along the op's banded dimension (rows or columns).
type kernelTask struct {
	op     kernelOp
	out    *Dense
	a, b   *Dense
	lo, hi int
	wg     *sync.WaitGroup
}

var (
	poolOnce  sync.Once
	poolSize  int
	taskQueue chan kernelTask
	wgPool    = sync.Pool{New: func() any { return new(sync.WaitGroup) }}
)

func startPool() {
	poolSize = runtime.GOMAXPROCS(0)
	if poolSize <= 1 {
		return // single-proc: everything runs inline
	}
	taskQueue = make(chan kernelTask, 4*poolSize)
	for w := 0; w < poolSize-1; w++ {
		go func() {
			for t := range taskQueue {
				runKernel(t)
				t.wg.Done()
			}
		}()
	}
}

func runKernel(t kernelTask) {
	switch t.op {
	case opMatMulRows:
		matMulRowsCols(t.out, t.a, t.b, t.lo, t.hi, 0, t.b.Shape[1])
	case opMatMulCols:
		matMulRowsCols(t.out, t.a, t.b, 0, t.a.Shape[0], t.lo, t.hi)
	case opTransB:
		matMulTransBRange(t.out, t.a, t.b, t.lo, t.hi)
	case opTransA:
		matMulTransARange(t.out, t.a, t.b, t.lo, t.hi)
	}
}

// parallelBands splits [0, span) into one band per worker and runs t's
// kernel over them, executing the first band on the calling goroutine.
// Bands of a single invocation never overlap along the banded dimension,
// so kernels need no further synchronization.
func parallelBands(t kernelTask, span int) {
	poolOnce.Do(startPool)
	workers := poolSize
	if workers > span {
		workers = span
	}
	if workers <= 1 || taskQueue == nil {
		t.lo, t.hi = 0, span
		runKernel(t)
		return
	}
	band := (span + workers - 1) / workers
	wg := wgPool.Get().(*sync.WaitGroup)
	t.wg = wg
	for lo := band; lo < span; lo += band {
		bt := t
		bt.lo, bt.hi = lo, min(lo+band, span)
		wg.Add(1)
		select {
		case taskQueue <- bt:
		default: // queue saturated: run the band inline rather than block
			runKernel(bt)
			wg.Done()
		}
	}
	t.lo, t.hi = 0, band
	runKernel(t)
	wg.Wait()
	wgPool.Put(wg)
}
