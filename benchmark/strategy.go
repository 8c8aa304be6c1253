package main

import (
	"fmt"
	"time"

	"haccs/internal/fl"
	"haccs/internal/rounds"
	"haccs/internal/stats"
)

// checkedStrategy sits between a round driver and the strategy under
// test. On every Select it checks the contract (k distinct available
// IDs) and folds the selection into a running hash, so two runs of one
// seed can be compared exactly; in the traced pass it also times
// Select and Update from outside. The checks are O(k) per round.
type checkedStrategy struct {
	inner rounds.Strategy
	seen  []bool

	hash       uint64
	selects    int
	violations int
	firstBad   string

	tr        *tracer // times Select/Update in the traced pass's measured window
	selectSec float64
	updateSec float64
}

func newCheckedStrategy(inner rounds.Strategy, clients int, tr *tracer) *checkedStrategy {
	return &checkedStrategy{inner: inner, seen: make([]bool, clients), hash: fnvOffset64, tr: tr}
}

func (c *checkedStrategy) Select(round int, available []bool, k int) []int {
	timed := c.tr.timing()
	var s time.Time
	if timed {
		s = time.Now()
	}
	sel := c.inner.Select(round, available, k)
	if timed {
		c.selectSec += time.Since(s).Seconds()
	}
	c.selects++
	if len(sel) != k {
		c.bad(fmt.Sprintf("round %d: %d selected, want %d", round, len(sel), k))
	}
	for _, id := range sel {
		switch {
		case id < 0 || id >= len(c.seen):
			c.bad(fmt.Sprintf("round %d: client %d out of range", round, id))
			continue
		case !available[id]:
			c.bad(fmt.Sprintf("round %d: client %d unavailable", round, id))
		case c.seen[id]:
			c.bad(fmt.Sprintf("round %d: client %d selected twice", round, id))
		}
		c.seen[id] = true
		c.hash = fnvInt(c.hash, id)
	}
	for _, id := range sel {
		if id >= 0 && id < len(c.seen) {
			c.seen[id] = false
		}
	}
	return sel
}

func (c *checkedStrategy) Update(round int, selected []int, losses []float64) {
	if !c.tr.timing() {
		c.inner.Update(round, selected, losses)
		return
	}
	s := time.Now()
	c.inner.Update(round, selected, losses)
	c.updateSec += time.Since(s).Seconds()
}

func (c *checkedStrategy) bad(msg string) {
	if c.violations == 0 {
		c.firstBad = msg
	}
	c.violations++
}

// check reports the selection contract over every Select so far.
func (c *checkedStrategy) check() check {
	return check{name: "select_k_distinct_available", ok: c.violations == 0 && c.selects > 0,
		detail: fmt.Sprintf("%d selects, %d violations %s", c.selects, c.violations, c.firstBad)}
}

// checkedFLStrategy adds the two methods fl.Engine needs on top of the
// round-driver surface.
type checkedFLStrategy struct {
	*checkedStrategy
	fl fl.Strategy
}

func newCheckedFLStrategy(inner fl.Strategy, clients int, tr *tracer) *checkedFLStrategy {
	return &checkedFLStrategy{checkedStrategy: newCheckedStrategy(inner, clients, tr), fl: inner}
}

func (c *checkedFLStrategy) Name() string                            { return c.fl.Name() }
func (c *checkedFLStrategy) Init(cl []fl.ClientInfo, rng *stats.RNG) { c.fl.Init(cl, rng) }
