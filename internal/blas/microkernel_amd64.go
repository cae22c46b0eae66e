//go:build amd64

package blas

// useAVX2 gates the assembly micro-kernel. Detection runs once at
// init; the fallback is the portable Go kernel.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU supports AVX2 and the OS has
// enabled the YMM register state (OSXSAVE + XCR0 bits 1:2).
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, cx, _ := cpuid(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if cx&osxsaveBit == 0 || cx&avxBit == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, bx, _, _ := cpuid(7, 0)
	return bx&(1<<5) != 0
}

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func microKernel4x8AVX2(kc int, pa, pb, c *float64, ldc int)

// microKernel4x8 dispatches the full-tile kernel. The assembly version
// uses separate VMULPD/VADDPD (never FMA, whose single rounding would
// diverge from the scalar kernels) and, where the packed A value
// compares equal to zero, blends the old accumulator back over the new
// sum, so it is bitwise identical to microKernel4x8Go.
func microKernel4x8(kc int, pa, pb []float64, c []float64, ldc int) {
	if useAVX2 && kc > 0 {
		microKernel4x8AVX2(kc, &pa[0], &pb[0], &c[0], ldc)
		return
	}
	microKernel4x8Go(kc, pa, pb, c, ldc)
}

//go:noescape
func gemmSmallAVX2(m, n, k int, alpha float64, a *float64, lda int, b *float64, ldb int, c *float64, ldc int)

// gemmSmall dispatches the row-AXPY kernel of the small path and the
// packed fringe. The assembly version keeps gemmSmallGo's k/m blocking,
// row order, per-(i,p) zero skip and operand order and only widens the
// j loop to 8 and 4 lanes, so it is bitwise identical to the Go loop,
// NaN payloads included. Rows narrower than one vector (n < 4) run its
// unrolled scalar loop, which still beats the Go loop: the calls are
// many and tiny, and the Go loop pays its slicing and bounds checks per
// (i,p).
func gemmSmall(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if !useAVX2 {
		gemmSmallGo(m, n, k, alpha, a, lda, b, ldb, c, ldc)
		return
	}
	if m == 0 || n == 0 {
		return
	}
	// The kernel reads through raw pointers: check the last element of
	// each operand once, which catches every short slice the Go loop
	// would have caught.
	_ = a[(m-1)*lda+k-1]
	_ = b[(k-1)*ldb+n-1]
	_ = c[(m-1)*ldc+n-1]
	for kb := 0; kb < k; kb += gemmKC {
		kc := k - kb
		if kc > gemmKC {
			kc = gemmKC
		}
		for ib := 0; ib < m; ib += gemmMC {
			mc := m - ib
			if mc > gemmMC {
				mc = gemmMC
			}
			gemmSmallAVX2(mc, n, kc, alpha, &a[ib*lda+kb], lda, &b[kb*ldb], ldb, &c[ib*ldc], ldc)
		}
	}
}
