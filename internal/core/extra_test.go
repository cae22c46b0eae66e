package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/sparse"
)

func TestSolveTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(50)
		a := randomSystem(n, 0.1, rng)
		opts := DefaultOptions()
		opts.Workers = 1 + rng.Intn(3)
		f, err := Factorize(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		// b = Aᵀ·x, recover x.
		b := make([]float64, n)
		a.MulVecT(x, b)
		got, err := f.SolveTranspose(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8*(1+math.Abs(x[i])) {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, i, got[i], x[i])
			}
		}
	}
}

func TestSolveTransposeMatchesTransposedFactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	a := randomSystem(35, 0.12, rng)
	b := make([]float64, 35)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	f, err := Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	x1, err := f.SolveTranspose(b)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := Factorize(a.Transpose(), nil)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := ft.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-8*(1+math.Abs(x2[i])) {
			t.Fatalf("x[%d]: transpose-solve %g vs factor-of-transpose %g", i, x1[i], x2[i])
		}
	}
}

func TestSolveTransposeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	a := randomSystem(10, 0.2, rng)
	f, err := Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SolveTranspose(make([]float64, 9)); err == nil {
		t.Fatal("wrong-length rhs accepted")
	}
}

func TestSolveRefined(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	a := randomSystem(40, 0.1, rng)
	b := make([]float64, 40)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	f, err := Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, berr, steps, err := f.SolveRefined(a, b, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if berr > 1e-13 {
		t.Fatalf("refined backward error %g", berr)
	}
	if steps > 3 {
		t.Fatalf("steps = %d", steps)
	}
	if got := Residual(a, x, b); got > 2*berr+1e-16 {
		t.Fatalf("reported berr %g, recomputed %g", berr, got)
	}
}

func TestPivotGrowthModest(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	a := randomSystem(40, 0.1, rng)
	f, err := Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := f.PivotGrowth(a)
	// Partial pivoting on a diagonally dominant matrix keeps growth
	// near 1; anything above 100 means broken bookkeeping.
	if g <= 0 || g > 100 {
		t.Fatalf("pivot growth %g out of range", g)
	}
}

func TestLogDetMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(306))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(25)
		a := randomSystem(n, 0.15, rng)
		f, err := Factorize(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		sign, logAbs := f.LogDet()

		// Dense reference determinant via LU.
		d := a.ToDense()
		ipiv := make([]int, n)
		if err := blas.Dgetrf(n, n, d, n, ipiv); err != nil {
			t.Fatal(err)
		}
		wantSign := 1.0
		wantLog := 0.0
		for i := 0; i < n; i++ {
			if ipiv[i] != i {
				wantSign = -wantSign
			}
			v := d[i*n+i]
			if v < 0 {
				wantSign = -wantSign
			}
			wantLog += math.Log(math.Abs(v))
		}
		if sign != wantSign {
			t.Fatalf("trial %d: sign %g, want %g", trial, sign, wantSign)
		}
		if math.Abs(logAbs-wantLog) > 1e-8*(1+math.Abs(wantLog)) {
			t.Fatalf("trial %d: logdet %g, want %g", trial, logAbs, wantLog)
		}
	}
}

func TestLogDetSingular(t *testing.T) {
	tr := sparse.NewTriplet(2, 2)
	tr.Add(0, 0, 1)
	tr.Add(0, 1, 2)
	tr.Add(1, 0, 2)
	tr.Add(1, 1, 4)
	f, err := Factorize(tr.ToCSC(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sign, _ := f.LogDet(); sign != 0 {
		t.Fatalf("singular sign = %g, want 0", sign)
	}
}

func TestCondEstimate(t *testing.T) {
	// Identity: κ₁ = 1.
	tr := sparse.NewTriplet(5, 5)
	for i := 0; i < 5; i++ {
		tr.Add(i, i, 1)
	}
	f, err := Factorize(tr.ToCSC(), nil)
	if err != nil {
		t.Fatal(err)
	}
	a := tr.ToCSC()
	k, err := f.CondEstimate1(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(k-1) > 1e-12 {
		t.Fatalf("κ(I) = %g, want 1", k)
	}

	// Diagonal with spread d: κ = max/min.
	tr2 := sparse.NewTriplet(4, 4)
	vals := []float64{1, 10, 100, 1000}
	for i, v := range vals {
		tr2.Add(i, i, v)
	}
	a2 := tr2.ToCSC()
	f2, err := Factorize(a2, nil)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := f2.CondEstimate1(a2)
	if err != nil {
		t.Fatal(err)
	}
	if k2 < 999 || k2 > 1001 {
		t.Fatalf("κ(diag) = %g, want ≈1000", k2)
	}
}

func TestCondEstimateNeverUnderestimatesBadly(t *testing.T) {
	// The Hager estimator is a lower bound on ‖A⁻¹‖₁ within a small
	// factor in practice; require it to be within 100× of the dense
	// value for random systems.
	rng := rand.New(rand.NewSource(307))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(20)
		a := randomSystem(n, 0.2, rng)
		f, err := Factorize(a, nil)
		if err != nil {
			t.Fatal(err)
		}
		est, err := f.CondEstimate1(a)
		if err != nil {
			t.Fatal(err)
		}
		// Dense ‖A⁻¹‖₁ by solving for each unit vector.
		d := a.ToDense()
		ipiv := make([]int, n)
		if err := blas.Dgetrf(n, n, d, n, ipiv); err != nil {
			t.Fatal(err)
		}
		norm := 0.0
		for j := 0; j < n; j++ {
			e := make([]float64, n)
			e[j] = 1
			blas.Dgetrs(n, d, n, ipiv, e)
			s := 0.0
			for _, v := range e {
				s += math.Abs(v)
			}
			if s > norm {
				norm = s
			}
		}
		trueK := a.Norm1() * norm
		if est > trueK*1.01 {
			t.Fatalf("trial %d: estimate %g above true κ %g", trial, est, trueK)
		}
		if est < trueK/100 {
			t.Fatalf("trial %d: estimate %g far below true κ %g", trial, est, trueK)
		}
	}
}

func TestPermSign(t *testing.T) {
	if permSign(sparse.Identity(5)) != 1 {
		t.Fatal("identity parity")
	}
	if permSign(sparse.Perm{1, 0}) != -1 {
		t.Fatal("transposition parity")
	}
	if permSign(sparse.Perm{1, 2, 0}) != 1 {
		t.Fatal("3-cycle parity")
	}
}

// Property: transpose-solve of A equals solve of Aᵀ across random
// systems and option combinations.
func TestQuickTransposeConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		a := randomSystem(n, 0.15, rng)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		opts := DefaultOptions()
		opts.Postorder = rng.Intn(2) == 0
		opts.Workers = 1 + rng.Intn(3)
		fac, err := Factorize(a, opts)
		if err != nil {
			return false
		}
		x, err := fac.SolveTranspose(b)
		if err != nil {
			return false
		}
		// Check Aᵀx = b directly.
		chk := make([]float64, n)
		a.MulVecT(x, chk)
		for i := range chk {
			if math.Abs(chk[i]-b[i]) > 1e-8*(1+math.Abs(b[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEquilibratedSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(308))
	for trial := 0; trial < 15; trial++ {
		n := 5 + rng.Intn(30)
		a := randomSystem(n, 0.15, rng)
		// Badly scale rows and columns.
		for j := 0; j < n; j++ {
			scale := math.Pow(10, float64(rng.Intn(9)-4))
			for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
				a.Val[k] *= scale
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		opts := DefaultOptions()
		opts.Equilibrate = true
		f, err := Factorize(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		x, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if r := Residual(a, x, b); r > 1e-9 {
			t.Fatalf("trial %d: equilibrated residual %g", trial, r)
		}
		// Transpose solve under scaling.
		bt := make([]float64, n)
		a.MulVecT(x, bt)
		xt, err := f.SolveTranspose(bt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(xt[i]-x[i]) > 1e-7*(1+math.Abs(x[i])) {
				t.Fatalf("trial %d: transpose solve with scaling wrong at %d", trial, i)
			}
		}
	}
}

func TestEquilibrateScales(t *testing.T) {
	tr := sparse.NewTriplet(2, 2)
	tr.Add(0, 0, 100)
	tr.Add(0, 1, 50)
	tr.Add(1, 1, 0.01)
	a := tr.ToCSC()
	r, c := Equilibrate(a)
	scaled := applyScaling(a, r, c)
	// Every row and column maximum of the scaled matrix must be ≤ 1 and
	// the per-row maxima exactly 1 for nonzero rows.
	for j := 0; j < 2; j++ {
		rows, vals := scaled.Col(j)
		for k := range rows {
			if math.Abs(vals[k]) > 1+1e-15 {
				t.Fatalf("scaled entry %g > 1", vals[k])
			}
		}
	}
	if scaled.MaxAbs() > 1+1e-15 {
		t.Fatal("scaled max above 1")
	}
}

func TestEquilibratedLogDet(t *testing.T) {
	tr := sparse.NewTriplet(2, 2)
	tr.Add(0, 0, 200)
	tr.Add(1, 1, 0.5)
	a := tr.ToCSC()
	opts := DefaultOptions()
	opts.Equilibrate = true
	f, err := Factorize(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	sign, logAbs := f.LogDet()
	if sign != 1 || math.Abs(logAbs-math.Log(100)) > 1e-10 {
		t.Fatalf("logdet = (%g, %g), want (1, log 100)", sign, logAbs)
	}
}

func TestSolveManyBlocked(t *testing.T) {
	rng := rand.New(rand.NewSource(309))
	a := randomSystem(45, 0.1, rng)
	f, err := Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	nrhs := 5
	bs := make([][]float64, nrhs)
	for r := range bs {
		bs[r] = make([]float64, 45)
		for i := range bs[r] {
			bs[r][i] = rng.NormFloat64()
		}
	}
	xs, err := f.SolveMany(bs)
	if err != nil {
		t.Fatal(err)
	}
	for r := range xs {
		// Must match the single-vector solve exactly (same kernels, same
		// order of operations per column).
		single, err := f.Solve(bs[r])
		if err != nil {
			t.Fatal(err)
		}
		for i := range single {
			if math.Abs(xs[r][i]-single[i]) > 1e-12*(1+math.Abs(single[i])) {
				t.Fatalf("rhs %d: blocked %g vs single %g at %d", r, xs[r][i], single[i], i)
			}
		}
		if res := Residual(a, xs[r], bs[r]); res > 1e-10 {
			t.Fatalf("rhs %d residual %g", r, res)
		}
	}
}

func TestSolveManyEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(310))
	a := randomSystem(10, 0.2, rng)
	f, err := Factorize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := f.SolveMany(nil); err != nil || out != nil {
		t.Fatal("empty rhs set should be a no-op")
	}
	if _, err := f.SolveMany([][]float64{make([]float64, 9)}); err == nil {
		t.Fatal("wrong-length rhs accepted")
	}
}

// TestResidualNaN pins that the backward error is NaN whenever x, b or
// the residual holds a NaN — including a NaN x entry in a column of A
// with no entries, which never reaches A·x — so a poisoned solution
// cannot pass a `berr <= tol` check.
func TestResidualNaN(t *testing.T) {
	a := sparse.FromDense([]float64{2, 0, 0, 0}, 2, 2, 0) // column 1 empty
	nan := math.NaN()
	cases := []struct {
		name string
		x, b []float64
	}{
		{"x in empty column", []float64{1, nan}, []float64{2, 0}},
		{"x in used column", []float64{nan, 1}, []float64{2, 0}},
		{"b", []float64{1, 0}, []float64{2, nan}},
	}
	for _, c := range cases {
		if got := Residual(a, c.x, c.b); !math.IsNaN(got) {
			t.Errorf("%s: Residual = %g, want NaN", c.name, got)
		}
	}
	if got := Residual(a, []float64{1, 0}, []float64{2, 0}); got != 0 {
		t.Errorf("exact solution: Residual = %g, want 0", got)
	}

	rng := rand.New(rand.NewSource(306))
	sys := randomSystem(30, 0.1, rng)
	f, err := Factorize(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 30)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	b[7] = nan
	_, berr, _, err := f.SolveRefinedWith(sys, b, 5, 1e-12, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(berr) {
		t.Fatalf("refined solve of a NaN right-hand side reports backward error %g, want NaN", berr)
	}
}
