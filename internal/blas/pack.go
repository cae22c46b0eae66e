package blas

import (
	"sync"
	"sync/atomic"
)

// Default cache-blocking sizes of the packed Dgemm path. A packMC×packKC
// block of A (128 KiB) and the packKC×gemmNR slice of the packed B panel
// it multiplies fit in L2 with room to spare; the packKC×gemmNR B
// micro-panel (8 KiB) stays in L1 across the whole column of A
// micro-tiles. These are the conservative fallback used when the
// analyze-time autotuner (autotune.go) cannot probe the cache geometry.
const (
	packMC = 128
	packKC = 128
	packNC = 512
	packNB = 32
)

// Hard capacities of the packing scratch. The autotuner may raise the
// runtime tile sizes up to these bounds; the fixed-size scratch arrays
// below are dimensioned for the worst case, so retuning never changes
// the allocation behavior of the hot path.
const (
	packMaxMC = 256
	packMaxKC = 256
	packMaxNC = 1024
)

// BlockSizes are the runtime cache-blocking parameters of the level-3
// kernels: MC×KC is the packed A block, KC×NC the packed B panel, and
// NB the strip/panel width of the blocked Dtrsm and DgetrfStatic
// drivers. Any in-range choice is bitwise-safe: blocking changes only
// which contributions are computed together, never the per-element
// ascending-k accumulation order the determinism contract pins.
type BlockSizes struct {
	MC, KC, NC, NB int
}

// DefaultBlockSizes returns the compiled-in tile sizes, active until a
// successful Autotune installs probed ones.
func DefaultBlockSizes() BlockSizes {
	return BlockSizes{MC: packMC, KC: packKC, NC: packNC, NB: packNB}
}

// tileParams holds the active blocking parameters. Kernels load the
// pointer once per call, so a concurrent SetTiles (analyze-time
// autotuning racing an in-flight factorization of another matrix) is
// safe and at worst leaves that call on the previous tiling.
var tileParams atomic.Pointer[BlockSizes]

func init() {
	d := DefaultBlockSizes()
	tileParams.Store(&d)
}

// Tiles returns the active cache-blocking parameters.
func Tiles() BlockSizes { return *tileParams.Load() }

// SetTiles installs bs — clamped to the packing-scratch capacities and
// micro-tile multiples — as the active blocking parameters and returns
// the value actually installed.
func SetTiles(bs BlockSizes) BlockSizes {
	bs = bs.clamp()
	p := bs
	tileParams.Store(&p)
	return bs
}

// clampTile rounds v down to a multiple of mul and bounds it to
// [lo, hi]; non-positive v selects def.
func clampTile(v, def, lo, hi, mul int) int {
	if v <= 0 {
		v = def
	}
	v -= v % mul
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

func (b BlockSizes) clamp() BlockSizes {
	b.MC = clampTile(b.MC, packMC, gemmMR, packMaxMC, gemmMR)
	b.KC = clampTile(b.KC, packKC, 16, packMaxKC, 8)
	b.NC = clampTile(b.NC, packNC, gemmNR, packMaxNC, gemmNR)
	b.NB = clampTile(b.NB, packNB, 8, 128, 8)
	return b
}

// Seed-path blocking constants (the original kernel's k/m blocking),
// kept for the row-AXPY kernel that handles operands too small to be
// worth packing and the fringe of the packed path.
const (
	gemmMC = 64
	gemmKC = 128
)

// packedGemmCutoff is the minimum m·n·k product for which the packing
// overhead pays for itself; below it the row-AXPY kernel wins.
const packedGemmCutoff = 8 * 1024

// gemmScratch holds the packing buffers of one in-flight level-3 call.
// The buffers are fixed-size arrays, not slices, so obtaining a scratch
// never calls make: allocation creates the whole struct at once and the
// numeric hot path recycles it allocation-free.
type gemmScratch struct {
	pa [packMaxMC * packMaxKC]float64
	pb [packMaxKC * packMaxNC]float64
}

// The scratch freelist recycles packing scratch across Dgemm calls.
// Workers draw from it at most once per kernel invocation, so after it
// warms up (one scratch per concurrently running worker) the parallel
// numeric phase performs zero heap allocations per task. This is
// deliberately a mutex-guarded stack rather than a sync.Pool: under the
// race detector the pool drops a fraction of Puts by design, and
// re-zeroing plus shadow-remapping the multi-MiB scratch on every drop
// dominated race-enabled factorizations (~2× wall time). The stack
// reuses every buffer deterministically; it grows to the peak number of
// concurrent packed calls and scratchMaxFree bounds the idle retention.
var (
	scratchMu   sync.Mutex
	scratchFree []*gemmScratch
)

const scratchMaxFree = 32

func getScratch() *gemmScratch {
	scratchMu.Lock()
	if n := len(scratchFree); n > 0 {
		s := scratchFree[n-1]
		scratchFree[n-1] = nil
		scratchFree = scratchFree[:n-1]
		scratchMu.Unlock()
		return s
	}
	scratchMu.Unlock()
	return new(gemmScratch)
}

func putScratch(s *gemmScratch) {
	scratchMu.Lock()
	if len(scratchFree) < scratchMaxFree {
		// The freelist stack IS the pooled buffer: its backing array
		// reaches the peak concurrency within a few calls and every
		// later append reuses it, so steady-state puts do not allocate.
		//lucheck:allow hot-alloc — bounded freelist append (≤scratchMaxFree), amortized zero-allocation after warm-up
		scratchFree = append(scratchFree, s)
	}
	scratchMu.Unlock()
}

// packA copies the mc×kc block at a (row-major, leading dimension lda)
// into pa as column-major micro-panels of gemmMR rows, folding alpha
// into the values: micro-panel ir holds rows [ir, ir+gemmMR) with
// element (r, p) at pa[ir*kc + p*gemmMR + r]. mc is a multiple of
// gemmMR.
func packA(mc, kc int, alpha float64, a []float64, lda int, pa []float64) {
	for ir := 0; ir < mc; ir += gemmMR {
		dst := pa[ir*kc:]
		for r := 0; r < gemmMR; r++ {
			src := a[(ir+r)*lda : (ir+r)*lda+kc]
			for p, v := range src {
				dst[p*gemmMR+r] = alpha * v
			}
		}
	}
}

// packB copies the kc×nc block at b (row-major, leading dimension ldb)
// into pb as row-major micro-panels of gemmNR columns: micro-panel jr
// holds columns [jr, jr+gemmNR) with element (p, j) at
// pb[jr*kc + p*gemmNR + j]. nc is a multiple of gemmNR.
func packB(kc, nc int, b []float64, ldb int, pb []float64) {
	for jr := 0; jr < nc; jr += gemmNR {
		dst := pb[jr*kc:]
		for p := 0; p < kc; p++ {
			copy(dst[p*gemmNR:p*gemmNR+gemmNR], b[p*ldb+jr:p*ldb+jr+gemmNR])
		}
	}
}
