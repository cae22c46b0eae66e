package main

import (
	"math"
	"math/rand"

	sparselu "repro"
	"repro/internal/matgen"
	"repro/internal/sparse"
)

// suiteMatrix is one generated benchmark matrix: the fixed pattern and
// base values of a matgen generator. Workloads never factor the base
// values directly; every operation factors a seeded perturbation.
type suiteMatrix struct {
	name string
	base *sparse.CSC
}

// serviceMatrices are the mid-size suite matrices the service workload
// serves: large enough that factorizations run beside solves for a
// visible time, small enough for a request rate with a usable tail.
var serviceMatrices = []string{"lnsp3937", "orsreg1", "sherman5"}

// generate builds the named suite matrices in the given order, or all
// seven full-size matgen.Suite matrices in suite order when names is
// nil.
func generate(names []string) []suiteMatrix {
	specs := map[string]matgen.Spec{}
	var order []string
	for _, sp := range matgen.Suite() {
		specs[sp.Name] = sp
		order = append(order, sp.Name)
	}
	if names == nil {
		names = order
	}
	out := make([]suiteMatrix, len(names))
	for i, name := range names {
		out[i] = suiteMatrix{name: name, base: specs[name].Gen()}
	}
	return out
}

// rng returns the deterministic random stream identified by the
// workload seed and a stream path. Distinct paths give independent
// streams, so an input depends only on (seed, path) and not on the
// order in which concurrent clients happen to draw inputs.
func rng(seed int64, path ...int64) *rand.Rand {
	h := uint64(seed)
	for _, p := range path {
		h = splitmix(h ^ splitmix(uint64(p)))
	}
	return rand.New(rand.NewSource(int64(splitmix(h))))
}

// splitmix is the SplitMix64 finalizer, used to mix stream ids.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// perturb returns a copy of base with every value scaled by an
// independent factor in [0.99, 1.01]. The pattern is unchanged, so an
// analysis of base serves the result, and so small a change keeps the
// suite matrices as well conditioned as the generators make them.
func perturb(base *sparse.CSC, r *rand.Rand) *sparselu.Matrix {
	a := base.Clone()
	for k := range a.Val {
		a.Val[k] *= 1 + 0.01*(2*r.Float64()-1)
	}
	return sparselu.WrapCSC(a)
}

// rhs returns a right-hand side with entries uniform in [-1, 1).
func rhs(n int, r *rand.Rand) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 2*r.Float64() - 1
	}
	return b
}

// residualTol is the largest scaled backward error
// ‖A·x − b‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞) a solution may have. The solver
// reaches about 1e-15 on every workload matrix, so anything above this
// is a wrong answer, not rounding.
const residualTol = 1e-12

// solutionOK reports whether x solves m·x = b to residualTol. Every
// entry of x must be finite: sparselu.Residual takes its maxima with
// comparisons that a NaN never wins, so a NaN in x can leave the
// residual small.
func solutionOK(m *sparselu.Matrix, x, b []float64) bool {
	if len(x) != len(b) {
		return false
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return sparselu.Residual(m, x, b) <= residualTol
}
