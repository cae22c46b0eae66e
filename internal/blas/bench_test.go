package blas

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkDgemm(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{8, 32, 64, 128, 256} {
		a := randMat(n, n, rng)
		bb := randMat(n, n, rng)
		c := randMat(n, n, rng)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(8 * n * n))
			for i := 0; i < b.N; i++ {
				Dgemm(n, n, n, 1, a, n, bb, n, 1, c, n)
			}
			flops := 2 * float64(n) * float64(n) * float64(n)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mflop/s")
		})
	}
}

func BenchmarkDgemmSkinny(b *testing.B) {
	// The shapes the supernodal update actually uses: tall-skinny panels
	// times small blocks.
	rng := rand.New(rand.NewSource(2))
	for _, shape := range [][3]int{{256, 8, 8}, {512, 16, 16}, {1024, 32, 32}} {
		m, n, k := shape[0], shape[1], shape[2]
		a := randMat(m, k, rng)
		bb := randMat(k, n, rng)
		c := randMat(m, n, rng)
		b.Run(fmt.Sprintf("%dx%dx%d", m, n, k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Dgemm(m, n, k, -1, a, k, bb, n, 1, c, n)
			}
		})
	}
}

func BenchmarkDtrsm(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{16, 64, 128} {
		t := randMat(n, n, rng)
		for i := 0; i < n; i++ {
			t[i*n+i] += float64(n)
		}
		x := randMat(n, n, rng)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Dtrsm(true, true, n, n, 1, t, n, x, n)
			}
		})
	}
}

func BenchmarkDgetrf(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{32, 128, 256} {
		orig := randMat(n, n, rng)
		a := make([]float64, n*n)
		ipiv := make([]int, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(a, orig)
				if err := Dgetrf(n, n, a, n, ipiv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDgetf2Panel(b *testing.B) {
	// Panel shapes from the factorization: tall and narrow.
	rng := rand.New(rand.NewSource(5))
	for _, shape := range [][2]int{{256, 8}, {512, 16}, {1024, 32}} {
		m, w := shape[0], shape[1]
		orig := randMat(m, w, rng)
		a := make([]float64, m*w)
		ipiv := make([]int, w)
		b.Run(fmt.Sprintf("%dx%d", m, w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(a, orig)
				if err := Dgetf2(m, w, a, w, ipiv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDgetrfStatic(b *testing.B) {
	// The blocked panel factorization on the tall-panel shapes the
	// supernodal numeric phase produces, plus a square case for
	// comparison with BenchmarkDgetrf's unblocked path.
	rng := rand.New(rand.NewSource(7))
	for _, shape := range [][2]int{{256, 256}, {512, 64}, {1024, 64}} {
		m, n := shape[0], shape[1]
		orig := randMat(m, n, rng)
		a := make([]float64, m*n)
		ipiv := make([]int, n)
		b.Run(fmt.Sprintf("%dx%d", m, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(a, orig)
				if _, fz := DgetrfStatic(m, n, a, n, ipiv, 0, nil); fz >= 0 {
					b.Fatalf("zero pivot at %d", fz)
				}
			}
			flops := 2*float64(m)*float64(n)*float64(n) - 2.0/3.0*float64(n)*float64(n)*float64(n)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mflop/s")
		})
	}
}

func BenchmarkDgemv(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	n := 256
	a := randMat(n, n, rng)
	x := randVec(n, rng)
	y := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dgemv(false, n, n, 1, a, n, x, 0, y)
	}
}

func BenchmarkDgemmFast(b *testing.B) {
	// The FastMath path on the same sizes as BenchmarkDgemm: the pair
	// quantifies what dropping the bitwise contract buys per size.
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{8, 32, 64, 128, 256} {
		a := randMat(n, n, rng)
		bb := randMat(n, n, rng)
		c := randMat(n, n, rng)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(8 * n * n))
			for i := 0; i < b.N; i++ {
				DgemmFast(n, n, n, 1, a, n, bb, n, 1, c, n)
			}
			flops := 2 * float64(n) * float64(n) * float64(n)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mflop/s")
		})
	}
}

func BenchmarkDgemmSmall(b *testing.B) {
	// The flop-dominant shapes of the suite's small path: updates from
	// narrow source panels, k = 1–3 or a few more, with about half of A
	// exactly zero (explicit zeros of the amalgamated panels).
	rng := rand.New(rand.NewSource(8))
	for _, shape := range [][3]int{{30, 30, 1}, {30, 30, 2}, {30, 30, 3}, {28, 11, 8}, {31, 2, 2}} {
		m, n, k := shape[0], shape[1], shape[2]
		a := randMat(m, k, rng)
		for i := range a {
			if rng.Intn(2) == 0 {
				a[i] = 0
			}
		}
		bb := randMat(k, n, rng)
		c := randMat(m, n, rng)
		b.Run(fmt.Sprintf("%dx%dx%d", m, n, k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Dgemm(m, n, k, -1, a, k, bb, n, 1, c, n)
			}
			flops := 2 * float64(m) * float64(n) * float64(k)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mflop/s")
		})
	}
}
