// Package cluster implements the density-based clustering algorithms the
// HACCS server runs on pairwise distribution distances: DBSCAN (Ester et
// al., KDD'96) and OPTICS (Ankerst et al., SIGMOD'99), both operating on
// a precomputed symmetric distance matrix, plus the cluster-quality
// metrics used in the paper's privacy experiment (Fig. 8a).
package cluster

import (
	"fmt"
	"runtime"
	"sync"
)

// Matrix is a symmetric pairwise distance matrix over n points, stored
// as the packed upper triangle (diagonal included): n·(n+1)/2 floats
// instead of n², row-major with row i holding cells (i,i)..(i,n-1). The
// At/Set API is unchanged — both index orders read and write the same
// packed cell — so symmetry is structural rather than maintained by
// mirror writes.
type Matrix struct {
	n int
	d []float64
}

// NewMatrix allocates a zero matrix over n points.
func NewMatrix(n int) *Matrix {
	if n <= 0 {
		panic("cluster: NewMatrix with non-positive size")
	}
	return &Matrix{n: n, d: make([]float64, n*(n+1)/2)}
}

// idx maps an (i, j) pair in either order to its packed-triangle offset:
// row i (i <= j) starts at i·n − i·(i−1)/2 and cell (i, j) sits j−i in.
func (m *Matrix) idx(i, j int) int {
	if i > j {
		i, j = j, i
	}
	return i*m.n - i*(i-1)/2 + (j - i)
}

// fromFuncSerialPairs is the pair count below which FromFunc stays
// serial: for small matrices (a 50-client roster is 1225 pairs) goroutine
// fan-out costs more than it saves.
const fromFuncSerialPairs = 2048

// FromFunc builds a symmetric matrix by evaluating dist(i, j) for every
// pair i < j; the diagonal is zero.
//
// For large matrices the pairs are evaluated in parallel across
// GOMAXPROCS workers, each owning a strided set of rows (row i carries
// n-1-i pairs, so striding balances the triangular workload). dist must
// therefore be safe for concurrent calls — every call site passes a
// read-only closure over precomputed per-point data, which is safe by
// construction. Each (i, j) pair is evaluated exactly once and written
// to its single packed cell by the worker owning row i, so the result
// is identical to the serial build. A panic inside dist (including the
// negative-distance panic) is re-raised on the calling goroutine.
func FromFunc(n int, dist func(i, j int) float64) *Matrix {
	m := NewMatrix(n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n/2 {
		workers = n / 2
	}
	if workers <= 1 || n*(n-1)/2 < fromFuncSerialPairs {
		m.fillRows(0, 1, dist)
		return m
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	panics := make(chan any, workers)
	for w := 0; w < workers; w++ {
		go func(start int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics <- r
				}
			}()
			m.fillRows(start, workers, dist)
		}(w)
	}
	wg.Wait()
	select {
	case r := <-panics:
		panic(r)
	default:
	}
	return m
}

// fillRows evaluates every pair (i, j), j > i, for rows start, start+
// stride, start+2·stride, …. Every cell of packed row i belongs to row i
// alone, so strided workers never write the same cell.
func (m *Matrix) fillRows(start, stride int, dist func(i, j int) float64) {
	n := m.n
	for i := start; i < n; i += stride {
		row := m.d[m.idx(i, i) : m.idx(i, i)+n-i]
		for j := i + 1; j < n; j++ {
			v := dist(i, j)
			if v < 0 {
				panic(fmt.Sprintf("cluster: negative distance %v for pair (%d,%d)", v, i, j))
			}
			row[j-i] = v
		}
	}
}

// Len returns the number of points.
func (m *Matrix) Len() int { return m.n }

// At returns the distance between points i and j.
func (m *Matrix) At(i, j int) float64 { return m.d[m.idx(i, j)] }

// Set assigns the symmetric distance between points i and j.
func (m *Matrix) Set(i, j int, v float64) {
	if v < 0 {
		panic("cluster: negative distance")
	}
	m.d[m.idx(i, j)] = v
}

// Noise is the cluster label assigned to points not belonging to any
// cluster.
const Noise = -1

// NumClusters returns the number of distinct non-noise labels in an
// assignment.
func NumClusters(labels []int) int {
	seen := map[int]bool{}
	for _, l := range labels {
		if l != Noise {
			seen[l] = true
		}
	}
	return len(seen)
}

// Members returns the point indices of each cluster, ascending, indexed
// by cluster label (labels are assumed to be 0..k-1 as produced by
// DBSCAN/OPTICS); a label without points gets nil. The lists are carved
// out of one backing array, each capped at its length.
func Members(labels []int) [][]int {
	k := 0
	for _, l := range labels {
		if l >= k {
			k = l + 1
		}
	}
	counts := make([]int, k)
	total := 0
	for _, l := range labels {
		if l != Noise {
			counts[l]++
			total++
		}
	}
	out := make([][]int, k)
	flat, off := make([]int, total), 0
	for l, c := range counts {
		if c > 0 {
			out[l] = flat[off : off : off+c]
			off += c
		}
	}
	for i, l := range labels {
		if l != Noise {
			out[l] = append(out[l], i)
		}
	}
	return out
}
