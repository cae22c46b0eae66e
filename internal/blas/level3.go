package blas

// Dgemm computes C ← α·A·B + β·C for row-major matrices: A is m×k (lda),
// B is k×n (ldb), C is m×n (ldc). Only the non-transposed case is
// provided; the factorization arranges its operands so that suffices.
//
// Two code paths produce bitwise-identical results: a row-AXPY kernel
// for small operands and the fringe of large ones, and a packed,
// register-tiled kernel (pack.go / microkernel.go) for the full 4×8
// tiles of everything else. Both accumulate each C element's
// contributions one k at a time in ascending k and skip a contribution
// exactly when α·A[i,p] == 0, so the floating-point operation sequence
// per element — and therefore the rounding — is identical no matter
// which path runs.
func Dgemm(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	dgemm(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, false)
}

// dgemm is the shared driver behind Dgemm and DgemmFast. fast selects
// the FastMath micro-kernels on the packed interior; the beta pass, the
// dispatch heuristic, and the row-AXPY kernel of the small path and the
// fringe are common to both modes.
func dgemm(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int, fast bool) {
	if beta != 1 {
		for i := 0; i < m; i++ {
			row := c[i*ldc : i*ldc+n]
			if beta == 0 {
				for j := range row {
					row[j] = 0
				}
			} else {
				for j := range row {
					row[j] *= beta
				}
			}
		}
	}
	if alpha == 0 || k == 0 {
		return
	}
	if m >= gemmMR && n >= gemmNR && m*n*k >= packedGemmCutoff {
		// The packed kernel takes the interior of whole 4×8 tiles; the
		// right column strip and the bottom row strip go through the
		// row-AXPY kernel on the unpacked operands. Each C element is
		// produced by exactly one of the three calls, all k terms in
		// ascending k, so the split is invisible in the result.
		mi, ni := m&^(gemmMR-1), n&^(gemmNR-1)
		gemmPacked(mi, ni, k, alpha, a, lda, b, ldb, c, ldc, fast)
		if ni < n {
			gemmSmall(mi, n-ni, k, alpha, a, lda, b[ni:], ldb, c[ni:], ldc)
		}
		if mi < m {
			gemmSmall(m-mi, n, k, alpha, a[mi*lda:], lda, b, ldb, c[mi*ldc:], ldc)
		}
		return
	}
	gemmSmall(m, n, k, alpha, a, lda, b, ldb, c, ldc)
}

// gemmSmallGo is the seed scalar kernel: i-k-j loop order with k/m
// blocking so the inner loop is a contiguous AXPY over a row of B. It
// is the portable small-path kernel and the reference the assembly
// row-AXPY kernel reproduces bit for bit.
func gemmSmallGo(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for kb := 0; kb < k; kb += gemmKC {
		kEnd := kb + gemmKC
		if kEnd > k {
			kEnd = k
		}
		for ib := 0; ib < m; ib += gemmMC {
			iEnd := ib + gemmMC
			if iEnd > m {
				iEnd = m
			}
			for i := ib; i < iEnd; i++ {
				crow := c[i*ldc : i*ldc+n]
				arow := a[i*lda:]
				for p := kb; p < kEnd; p++ {
					aip := alpha * arow[p]
					if aip == 0 {
						continue
					}
					brow := b[p*ldb : p*ldb+n]
					for j, v := range brow {
						crow[j] += aip * v
					}
				}
			}
		}
	}
}

// gemmPacked is the five-loop BLIS-style kernel: B panels of KC×NC rows
// are packed once and reused across all A blocks, A blocks of MC×KC are
// packed with alpha folded in, and the packed micro-panels feed the
// gemmMR×gemmNR register-tile kernel. m and n must be multiples of
// gemmMR and gemmNR; since the clamped MC and NC are too, every block
// splits into whole micro-tiles. The MC/KC/NC extents come from the
// runtime BlockSizes (autotuned at analyze time, defaults otherwise);
// the scratch arrays are dimensioned for the clamp capacities, so any
// installed tiling fits. Packing scratch comes from the scratch
// freelist, so steady-state calls do not allocate. fast swaps the
// micro-kernel for the FastMath one.
func gemmPacked(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, fast bool) {
	bt := Tiles()
	s := getScratch()
	for jc := 0; jc < n; jc += bt.NC {
		nc := n - jc
		if nc > bt.NC {
			nc = bt.NC
		}
		for pc := 0; pc < k; pc += bt.KC {
			kc := k - pc
			if kc > bt.KC {
				kc = bt.KC
			}
			packB(kc, nc, b[pc*ldb+jc:], ldb, s.pb[:])
			for ic := 0; ic < m; ic += bt.MC {
				mc := m - ic
				if mc > bt.MC {
					mc = bt.MC
				}
				packA(mc, kc, alpha, a[ic*lda+pc:], lda, s.pa[:])
				for jr := 0; jr < nc; jr += gemmNR {
					pbp := s.pb[jr*kc:]
					for ir := 0; ir < mc; ir += gemmMR {
						cc := c[(ic+ir)*ldc+jc+jr:]
						if fast {
							microKernel4x8Fast(kc, s.pa[ir*kc:], pbp, cc, ldc)
						} else {
							microKernel4x8(kc, s.pa[ir*kc:], pbp, cc, ldc)
						}
					}
				}
			}
		}
	}
	putScratch(s)
}

// Dtrsm solves op(T)·X = α·B in place (B is overwritten with X) where T
// is an m×m triangular matrix applied from the left. lower selects the
// triangle of T, unit an implicit unit diagonal. B is m×n row-major with
// leading dimension ldb.
//
// The lower solve is blocked with the runtime NB strip width: each
// NB-row strip first receives the contributions of all rows above it
// through Dgemm (ascending p, same per-element order and T==0 skip as
// the unblocked loop, so results stay bitwise identical for any NB) and
// is then solved unblocked. The upper solve stays unblocked: it walks
// rows bottom-up but accumulates each element's subtrahends in
// ascending p, an order a strip decomposition would reorder — and it
// only runs in the triangular-solve phase, not under the
// factorization's update tasks.
func Dtrsm(lower, unit bool, m, n int, alpha float64, t []float64, ldt int, b []float64, ldb int) {
	dtrsm(lower, unit, m, n, alpha, t, ldt, b, ldb, false)
}

// dtrsm is the shared driver behind Dtrsm and DtrsmFast: fast is passed
// down to the strip-update Dgemm of the blocked lower solve.
func dtrsm(lower, unit bool, m, n int, alpha float64, t []float64, ldt int, b []float64, ldb int, fast bool) {
	if alpha != 1 {
		for i := 0; i < m; i++ {
			row := b[i*ldb : i*ldb+n]
			for j := range row {
				row[j] *= alpha
			}
		}
	}
	if lower {
		nb := Tiles().NB
		if m <= nb {
			trsmLowerUnblocked(unit, m, n, t, ldt, b, ldb)
			return
		}
		for i0 := 0; i0 < m; i0 += nb {
			ib := m - i0
			if ib > nb {
				ib = nb
			}
			if i0 > 0 {
				// B[i0:i0+ib] -= T[i0:i0+ib, 0:i0] · X[0:i0]
				dgemm(ib, n, i0, -1, t[i0*ldt:], ldt, b, ldb, 1, b[i0*ldb:], ldb, fast)
			}
			trsmLowerUnblocked(unit, ib, n, t[i0*ldt+i0:], ldt, b[i0*ldb:], ldb)
		}
		return
	}
	for i := m - 1; i >= 0; i-- {
		bi := b[i*ldb : i*ldb+n]
		trow := t[i*ldt+i+1 : i*ldt+m]
		for pj, tip := range trow {
			if tip == 0 {
				continue
			}
			p := i + 1 + pj
			bp := b[p*ldb : p*ldb+n]
			for j, v := range bp {
				bi[j] -= tip * v
			}
		}
		if !unit {
			d := 1 / t[i*ldt+i]
			for j := range bi {
				bi[j] *= d
			}
		}
	}
}

// trsmLowerUnblocked is the seed forward-substitution loop on an m×m
// lower triangle. Each row of X accumulates its subtrahends in
// ascending p with an exact-zero skip on T — the contract the blocked
// driver and Dgemm preserve.
func trsmLowerUnblocked(unit bool, m, n int, t []float64, ldt int, b []float64, ldb int) {
	for i := 0; i < m; i++ {
		bi := b[i*ldb : i*ldb+n]
		trow := t[i*ldt : i*ldt+i]
		for p, tip := range trow {
			if tip == 0 {
				continue
			}
			bp := b[p*ldb : p*ldb+n]
			for j, v := range bp {
				bi[j] -= tip * v
			}
		}
		if !unit {
			d := 1 / t[i*ldt+i]
			for j := range bi {
				bi[j] *= d
			}
		}
	}
}
