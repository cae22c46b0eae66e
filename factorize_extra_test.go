package sparselu

import (
	"math"
	"testing"
)

func TestPublicSolveTranspose(t *testing.T) {
	m := buildRandom(t, 30, 0.12, 41)
	f, err := Factorize(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 30)
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	// b = Aᵀx via (Aᵀ)·x = columns dot x.
	b := make([]float64, 30)
	for j := 0; j < 30; j++ {
		var s float64
		for i := 0; i < 30; i++ {
			s += m.At(i, j) * x[i]
		}
		b[j] = s
	}
	got, err := f.SolveTranspose(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-8*(1+math.Abs(x[i])) {
			t.Fatalf("x[%d] = %g, want %g", i, got[i], x[i])
		}
	}
}

func TestPublicSolveRefined(t *testing.T) {
	m := buildRandom(t, 25, 0.15, 42)
	f, err := Factorize(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 25)
	for i := range b {
		b[i] = 1
	}
	x, berr, steps, err := f.SolveRefined(b, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if berr > 1e-13 || steps > 3 {
		t.Fatalf("berr %g steps %d", berr, steps)
	}
	if r := Residual(m, x, b); r > 1e-12 {
		t.Fatalf("residual %g", r)
	}
}

func TestPublicConditionEstimate(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 0, 2)
	b.Add(1, 1, 2)
	b.Add(2, 2, 2)
	m, _ := b.Build()
	f, err := Factorize(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	k, err := f.ConditionEstimate()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(k-1) > 1e-12 {
		t.Fatalf("κ(2I) = %g, want 1", k)
	}
}

func TestPublicLogDetAndGrowth(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 0, 3)
	b.Add(1, 1, 4)
	m, _ := b.Build()
	f, err := Factorize(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	sign, logAbs := f.LogDet()
	if sign != 1 || math.Abs(logAbs-math.Log(12)) > 1e-12 {
		t.Fatalf("logdet = (%g, %g), want (1, log 12)", sign, logAbs)
	}
	if g := f.PivotGrowth(); math.Abs(g-1) > 1e-12 {
		t.Fatalf("growth of diagonal matrix = %g, want 1", g)
	}
}

// TestResidualNaN pins the public backward error's NaN contract: a NaN
// in the solution or the right-hand side yields NaN, never a small
// number that passes a tolerance check, and SolveRefined reports it.
func TestResidualNaN(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 0, 2)
	b.Add(1, 1, 2)
	b.Add(2, 2, 2)
	m, _ := b.Build()
	nan := math.NaN()
	if r := Residual(m, []float64{1, nan, 1}, []float64{2, 2, 2}); !math.IsNaN(r) {
		t.Fatalf("Residual with NaN in x = %g, want NaN", r)
	}
	if r := Residual(m, []float64{1, 1, 1}, []float64{2, nan, 2}); !math.IsNaN(r) {
		t.Fatalf("Residual with NaN in b = %g, want NaN", r)
	}
	f, err := Factorize(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, berr, _, err := f.SolveRefined([]float64{2, nan, 2}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(berr) {
		t.Fatalf("SolveRefined of a NaN right-hand side reports backward error %g, want NaN", berr)
	}
}
