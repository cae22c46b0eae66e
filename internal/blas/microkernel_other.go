//go:build !amd64

package blas

// microKernel4x8 is the portable dispatch: no assembly kernel on this
// architecture.
func microKernel4x8(kc int, pa, pb []float64, c []float64, ldc int) {
	microKernel4x8Go(kc, pa, pb, c, ldc)
}

// gemmSmall is the portable row-AXPY dispatch: the seed Go loop.
func gemmSmall(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	gemmSmallGo(m, n, k, alpha, a, lda, b, ldb, c, ldc)
}
