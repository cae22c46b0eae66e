package main

import (
	"math/rand"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/taskgraph"
)

// The dense kernel classes the numeric factorization calls. The two
// gemm classes are the two code paths of blas.Dgemm.
const (
	kGemmSmall = iota
	kGemmPacked
	kTrsm
	kPanelLU
	numKernels
)

// packedPath mirrors the dispatch of blas.Dgemm: operands with m ≥ 4,
// n ≥ 8 and m·n·k ≥ 8192 take the packed register-tiled kernel, all
// others the scalar gemmSmall loop.
func packedPath(m, n, k int) bool { return m >= 4 && n >= 8 && m*n*k >= 8*1024 }

// kernelCall is one dense kernel call of the numeric factorization:
// gemm is m×k times k×n, trsm solves an m×m unit lower triangle against
// m×n, panel LU factors an m×n panel.
type kernelCall struct {
	class   int
	m, n, k int
}

func (c kernelCall) flops() float64 {
	m, n, k := float64(c.m), float64(c.n), float64(c.k)
	switch c.class {
	case kTrsm:
		return n * m * (m - 1)
	case kPanelLU:
		// LAPACK's getrf count for m ≥ n.
		return m*n*n - n*n*n/3 - n*n/2 + 5*n/6
	}
	return 2 * m * n * k
}

// entries is the operand footprint of the call, in float64s.
func (c kernelCall) entries() int {
	switch c.class {
	case kTrsm:
		return c.m*c.m + c.m*c.n
	case kPanelLU:
		return c.m * c.n
	}
	return c.m*c.k + c.k*c.n + c.m*c.n
}

// forEachKernelCall enumerates the dense kernel calls the numeric
// factorization of s makes, task by task, with the shapes core's task
// bodies derive from the supernode partition and the block structure:
// F(K) factors the stacked L panel of block column K; U(K,J) solves
// the wk×wj block (K,J) with the unit lower diagonal block of K and
// then updates every sub-diagonal block I of column K with an
// szI×wj×wk gemm.
func forEachKernelCall(s *core.Symbolic, fn func(kernelCall)) {
	part, lpat := s.Part, s.BlockSym.L
	for _, t := range s.Graph.Tasks {
		wk := part.Size(t.K)
		below := lpat.Col(t.K) // starts at the diagonal block
		if t.Kind == taskgraph.Factor {
			rows := 0
			for _, i := range below {
				rows += part.Size(i)
			}
			fn(kernelCall{class: kPanelLU, m: rows, n: wk})
			continue
		}
		wj := part.Size(t.J)
		fn(kernelCall{class: kTrsm, m: wk, n: wj})
		for _, i := range below[1:] {
			m := part.Size(i)
			class := kGemmSmall
			if packedPath(m, wj, wk) {
				class = kGemmPacked
			}
			fn(kernelCall{class: class, m: m, n: wj, k: wk})
		}
	}
}

// Replay sample bounds, per kernel class and matrix: enough work for a
// stable rate, little enough to keep the traced pass short.
const (
	replayFlops   = 5e7
	replayEntries = 1 << 20
)

// kernelAcc accumulates the exact flop split of the calls and the
// timed replay of a uniform sample of them.
type kernelAcc struct {
	flops       [numKernels]float64
	sampleFlops [numKernels]float64
	sampleSecs  [numKernels]float64
}

// replay counts every kernel call of s, then re-runs a uniform sample
// of each class (every stride-th call, from a seeded offset) through
// the exported blas kernels on fresh random operands and times it.
func (acc *kernelAcc) replay(s *core.Symbolic, r *rand.Rand) {
	var flops [numKernels]float64
	var entries [numKernels]int
	forEachKernelCall(s, func(c kernelCall) {
		flops[c.class] += c.flops()
		entries[c.class] += c.entries()
	})
	var stride, next [numKernels]int
	for c := range stride {
		acc.flops[c] += flops[c]
		stride[c] = max(1, int(flops[c]/replayFlops)+1, entries[c]/replayEntries+1)
		next[c] = r.Intn(stride[c])
	}
	var sample [numKernels][]kernelCall
	seen := [numKernels]int{}
	forEachKernelCall(s, func(c kernelCall) {
		if seen[c.class] == next[c.class] {
			sample[c.class] = append(sample[c.class], c)
			next[c.class] += stride[c.class]
		}
		seen[c.class]++
	})
	for class, calls := range sample {
		f, secs := runSample(calls, r)
		acc.sampleFlops[class] += f
		acc.sampleSecs[class] += secs
	}
}

// runSample lays out fresh random operands for every call of one class
// and times the calls back to back.
func runSample(calls []kernelCall, r *rand.Rand) (flops, secs float64) {
	if len(calls) == 0 {
		return 0, 0
	}
	total, width := 0, 0
	for _, c := range calls {
		total += c.entries()
		flops += c.flops()
		width = max(width, c.n)
	}
	arena := make([]float64, total)
	for i := range arena {
		arena[i] = 2*r.Float64() - 1
	}
	ops := make([][]float64, len(calls))
	off := 0
	for i, c := range calls {
		ops[i] = arena[off : off+c.entries()]
		off += c.entries()
		if c.class == kPanelLU {
			// Diagonally dominant panels factor without row exchanges
			// or zero pivots, like the well-conditioned suite.
			for d := 0; d < c.n; d++ {
				ops[i][d*c.n+d] += float64(c.n + 1)
			}
		}
	}
	ipiv := make([]int, width)
	start := time.Now()
	for i, c := range calls {
		op := ops[i]
		switch c.class {
		case kTrsm:
			blas.Dtrsm(true, true, c.m, c.n, 1, op, c.m, op[c.m*c.m:], c.n)
		case kPanelLU:
			blas.DgetrfStatic(c.m, c.n, op, c.n, ipiv[:c.n], 0, nil)
		default:
			a, b, cc := op[:c.m*c.k], op[c.m*c.k:c.m*c.k+c.k*c.n], op[c.m*c.k+c.k*c.n:]
			blas.Dgemm(c.m, c.n, c.k, -1, a, c.k, b, c.n, 1, cc, c.n)
		}
	}
	return flops, time.Since(start).Seconds()
}

// gflops is a sampled rate, 0 when the class never ran.
func (acc *kernelAcc) gflops(class int) float64 {
	if acc.sampleSecs[class] == 0 {
		return 0
	}
	return acc.sampleFlops[class] / acc.sampleSecs[class] / 1e9
}

// smallShare is the exact share of gemm flops on the gemmSmall path.
func (acc *kernelAcc) smallShare() float64 {
	total := acc.flops[kGemmSmall] + acc.flops[kGemmPacked]
	if total == 0 {
		return 0
	}
	return acc.flops[kGemmSmall] / total
}
