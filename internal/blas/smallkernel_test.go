package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file pins the row-AXPY kernel of the small path and the packed
// fringe: gemmSmall (the assembly kernel where the CPU has AVX2) must
// match gemmSmallGo, the seed loop, bit for bit on data that exercises
// every special value, and Dgemm/DgemmFast must give the seed's bits on
// every element the fringe split routes through it.

// specialMat draws a rows×cols matrix with leading dimension ld (the
// padding columns are filled too, so a kernel that writes past its
// operand shows up) from a mix of about 50% exact zeros, half of them
// −0, and otherwise normals, denormals, ±Inf and NaNs whose payloads
// carry tag in their low bits, quiet and signaling alike. Giving A, B
// and C distinct tags makes a kernel that propagates the wrong
// operand's NaN visible.
func specialMat(rows, cols, ld int, tag uint64, rng *rand.Rand) []float64 {
	x := make([]float64, rows*ld)
	for i := range x {
		switch r := rng.Float64(); {
		case r < 0.25:
			x[i] = 0
		case r < 0.5:
			x[i] = math.Copysign(0, -1)
		case r < 0.55:
			x[i] = rng.NormFloat64() * 0x1p-1060 // denormal
		case r < 0.57:
			x[i] = math.Inf(1)
		case r < 0.59:
			x[i] = math.Inf(-1)
		case r < 0.61:
			// Quiet NaN, sign and payload tagged.
			x[i] = math.Float64frombits(0x7FF8000000000000 | tag<<32 | uint64(rng.Intn(1<<16)) | uint64(rng.Intn(2))<<63)
		case r < 0.63:
			// Signaling NaN: quiet bit clear, payload nonzero.
			x[i] = math.Float64frombits(0x7FF0000000000000 | tag<<32 | uint64(1+rng.Intn(1<<16)))
		default:
			x[i] = rng.NormFloat64()
		}
	}
	return x
}

// TestGemmSmallAsmMatchesGo compares the dispatched row-AXPY kernel
// with the seed Go loop across row counts, every column count of the
// narrow n < 4 loop, every lane-tail width of the 8/4/1 AXPY, depths on
// both sides of the k blocking and leading dimensions wider than the
// operands. On hosts without the assembly
// kernel both sides run the Go loop and the test is vacuous.
func TestGemmSmallAsmMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	ms := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 70}
	ns := []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 33}
	ks := []int{1, 2, 3, 8, 130}
	for _, m := range ms {
		for _, n := range ns {
			for _, k := range ks {
				lda, ldb, ldc := k+3, n+5, n+2
				a := specialMat(m, k, lda, 0xA, rng)
				b := specialMat(k, n, ldb, 0xB, rng)
				c0 := specialMat(m, n, ldc, 0xC, rng)
				for _, alpha := range []float64{1, -1, 0.5, math.Inf(1)} {
					c1 := append([]float64(nil), c0...)
					c2 := append([]float64(nil), c0...)
					gemmSmall(m, n, k, alpha, a, lda, b, ldb, c1, ldc)
					gemmSmallGo(m, n, k, alpha, a, lda, b, ldb, c2, ldc)
					bitsEqual(t, fmt.Sprintf("gemmSmall %dx%dx%d alpha=%g", m, n, k, alpha), c1, c2)
				}
			}
		}
	}
}

// TestDgemmSpecialValues runs the same kind of data through the public
// Dgemm — small path, packed interior and fringe — against the verbatim
// seed kernel, with every β. NaN payloads are a contract of the
// assembly kernels only (they copy the operand order of the compiled
// seed loop), so the test needs them.
func TestDgemmSpecialValues(t *testing.T) {
	if !HasAVX2() {
		t.Skip("no AVX2 kernels on this host")
	}
	rng := rand.New(rand.NewSource(82))
	shapes := [][3]int{{30, 30, 1}, {30, 30, 3}, {28, 11, 8}, {31, 2, 2}, {3, 300, 9}, {300, 7, 3}, {64, 64, 64}}
	for _, s := range append(shapes, fringeShapes...) {
		m, n, k := s[0], s[1], s[2]
		a := specialMat(m, k, k, 0xA, rng)
		b := specialMat(k, n, n, 0xB, rng)
		c0 := specialMat(m, n, n, 0xC, rng)
		for _, beta := range []float64{1, 0, -1, 0.5} {
			c1 := append([]float64(nil), c0...)
			c2 := append([]float64(nil), c0...)
			Dgemm(m, n, k, -1, a, k, b, n, beta, c1, n)
			seedDgemm(m, n, k, -1, a, k, b, n, beta, c2, n)
			bitsEqual(t, fmt.Sprintf("Dgemm %dx%dx%d beta=%g", m, n, k, beta), c1, c2)
		}
	}
}

// fringeShapes are above the packed cutoff with m%4 ≠ 0 and n%8 ≠ 0,
// so every call has a packed interior, a right column strip of 1–7
// columns (both sides of the 4-lane AXPY) and a bottom row strip;
// some span several KC blocks or NC slabs.
var fringeShapes = [][3]int{
	{5, 9, 300},
	{21, 30, 40},
	{67, 13, 129},
	{33, 17, 260},
	{130, 259, 33},
	{7, 1027, 3},
	{129, 45, 261},
}

// TestDgemmFringeSplitBitwise pins the interior/fringe split of the
// packed path to the seed kernel, bit for bit, with leading dimensions
// wider than the operands.
func TestDgemmFringeSplitBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, s := range fringeShapes {
		m, n, k := s[0], s[1], s[2]
		lda, ldb, ldc := k+1, n+3, n+5
		a := sparseRandMat(m, lda, rng)
		b := sparseRandMat(k, ldb, rng)
		c0 := sparseRandMat(m, ldc, rng)
		for _, alpha := range []float64{1, -1, 0.5} {
			for _, beta := range []float64{1, 0, 0.5} {
				c1 := append([]float64(nil), c0...)
				c2 := append([]float64(nil), c0...)
				Dgemm(m, n, k, alpha, a, lda, b, ldb, beta, c1, ldc)
				seedDgemm(m, n, k, alpha, a, lda, b, ldb, beta, c2, ldc)
				bitsEqual(t, fmt.Sprintf("Dgemm %dx%dx%d", m, n, k), c1, c2)
			}
		}
	}
}

// TestDgemmFastFringeBitwise checks that DgemmFast relaxes only the
// packed interior: its right and bottom strips go through the bitwise
// row-AXPY kernel, so those elements — and the padding past column n —
// carry the seed's bits.
func TestDgemmFastFringeBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	for _, s := range fringeShapes {
		m, n, k := s[0], s[1], s[2]
		lda, ldb, ldc := k+1, n+3, n+5
		a := sparseRandMat(m, lda, rng)
		b := sparseRandMat(k, ldb, rng)
		c0 := sparseRandMat(m, ldc, rng)
		c1 := append([]float64(nil), c0...)
		c2 := append([]float64(nil), c0...)
		DgemmFast(m, n, k, -1, a, lda, b, ldb, 1, c1, ldc)
		seedDgemm(m, n, k, -1, a, lda, b, ldb, 1, c2, ldc)
		mi, ni := m&^(gemmMR-1), n&^(gemmNR-1)
		for i := 0; i < m; i++ {
			for j := 0; j < ldc; j++ {
				if i < mi && j < ni {
					continue
				}
				if g, w := c1[i*ldc+j], c2[i*ldc+j]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("DgemmFast %dx%dx%d: fringe element (%d,%d) = %x, seed %x",
						m, n, k, i, j, math.Float64bits(g), math.Float64bits(w))
				}
			}
		}
	}
}
